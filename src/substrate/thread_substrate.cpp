#include "substrate/thread_substrate.h"

#include <chrono>
#include <string>
#include <utility>

namespace dowork::substrate {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

ThreadExecutor::ThreadExecutor(int num_procs, const LiveOptions& opts)
    : opts_(opts),
      channels_(static_cast<std::size_t>(num_procs)),
      ring_(static_cast<std::size_t>(num_procs)),
      exited_(static_cast<std::size_t>(num_procs)),
      slot_of_proc_(static_cast<std::size_t>(num_procs), -1) {
  threads_.reserve(static_cast<std::size_t>(num_procs));
  for (int p = 0; p < num_procs; ++p) threads_.emplace_back([this, p] { worker_main(p); });
  stats_.threads = num_procs;
}

ThreadExecutor::~ThreadExecutor() { shutdown(); }

void ThreadExecutor::worker_main(int p) {
  detail::set_cancel_token(&cancel_);
  const std::size_t self = static_cast<std::size_t>(p);
  for (;;) {
    const WorkerCmd cmd = channels_[self].take();
    if (cmd == WorkerCmd::kExit) break;
    // A step assignment that raced a watchdog abort: nobody is waiting for
    // the result, so don't start a stale evaluation.
    if (cancel_.cancelled()) break;
    StepEval* eval = eval_.load(std::memory_order_acquire);
    ring_.push(ResultMsg{p, eval->eval_step(p)});
  }
  detail::set_cancel_token(nullptr);
  exited_[self].store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(exit_m_);
  }
  exit_cv_.notify_all();
}

void ThreadExecutor::run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                               std::vector<Ready>& out) {
  // The kStep posts below (mutex handoffs) order this store before any
  // worker's load; the atomic keeps a late-running stale worker data-race
  // free as well.
  eval_.store(&eval, std::memory_order_release);

  const std::size_t expected = steps.size();
  const bool free_sched = opts_.schedule == LiveOptions::Schedule::kFree;
  have_.assign(expected, 0);
  if (!free_sched) det_actions_.assign(expected, Action{});
  for (std::size_t i = 0; i < expected; ++i)
    slot_of_proc_[static_cast<std::size_t>(steps[i])] = static_cast<int>(i);

  const auto deadline = Clock::now() + std::chrono::milliseconds(opts_.watchdog_ms);
  for (int p : steps) channels_[static_cast<std::size_t>(p)].post(WorkerCmd::kStep);

  std::size_t got = 0;
  ResultMsg msg;
  while (got < expected) {
    while (got < expected && ring_.pop(msg)) {
      const std::size_t idx =
          static_cast<std::size_t>(slot_of_proc_[static_cast<std::size_t>(msg.proc)]);
      have_[idx] = 1;
      ++got;
      if (free_sched)
        out.push_back(Ready{msg.proc, std::move(msg.action)});
      else
        det_actions_[idx] = std::move(msg.action);
    }
    if (got >= expected) break;
    if (!ring_.wait_nonempty_until(deadline)) {
      // Watchdog: the round missed its wall-clock deadline.  Cancel the run
      // cooperatively and abort with a structured reason; nothing from this
      // round commits.  (Free-schedule runs abort too -- out may hold
      // already-collected results, so the contract "throw before appending"
      // is kept by clearing it here.)
      cancel_.cancel();
      out.clear();
      std::size_t missing = 0;
      int first_stalled = -1;
      for (std::size_t i = 0; i < expected; ++i) {
        if (have_[i]) continue;
        ++missing;
        if (first_stalled < 0) first_stalled = steps[i];
      }
      throw AbortRun{"watchdog: " + std::to_string(missing) + " worker(s) missed the " +
                     std::to_string(opts_.watchdog_ms) + "ms round deadline (first stalled: proc " +
                     std::to_string(first_stalled) + ", round " + round.to_string() + ")",
                     "cause=watchdog proc=" + std::to_string(first_stalled) +
                         " missing=" + std::to_string(missing) + " round=" + round.to_string() +
                         " deadline_ms=" + std::to_string(opts_.watchdog_ms)};
    }
  }
  if (!free_sched)
    for (std::size_t i = 0; i < expected; ++i) out.push_back(Ready{steps[i], std::move(det_actions_[i])});
}

void ThreadExecutor::on_retire(int proc, ProcState state, KillPoint kp) {
  // The retirement is real: the process's thread leaves its loop at the
  // kill point the committed crash plan chose.  kExit is sticky, so even a
  // worker mid-take sees it.
  channels_[static_cast<std::size_t>(proc)].post(WorkerCmd::kExit);
  if (state != ProcState::kCrashed) return;
  switch (kp) {
    case KillPoint::kSendCommit: ++stats_.kills_send_commit; break;
    case KillPoint::kMidBroadcast: ++stats_.kills_mid_broadcast; break;
    case KillPoint::kRoundBarrier: ++stats_.kills_round_barrier; break;
    case KillPoint::kNone: break;
  }
}

bool ThreadExecutor::shutdown() {
  if (shut_down_) return !stats_.leaked;
  shut_down_ = true;
  cancel_.cancel();
  for (auto& ch : channels_) ch.post(WorkerCmd::kExit);

  const auto deadline = Clock::now() + std::chrono::milliseconds(opts_.join_grace_ms);
  {
    std::unique_lock<std::mutex> lock(exit_m_);
    exit_cv_.wait_until(lock, deadline, [&] {
      for (const auto& e : exited_)
        if (!e.load(std::memory_order_acquire)) return false;
      return true;
    });
  }
  for (std::size_t p = 0; p < threads_.size(); ++p) {
    if (exited_[p].load(std::memory_order_acquire)) {
      if (threads_[p].joinable()) threads_[p].join();
    } else {
      // A worker ignoring the cancel token cannot be joined; detach it and
      // report the leak so the caller pins this run's storage.
      threads_[p].detach();
      stats_.leaked = true;
    }
  }
  return !stats_.leaked;
}

namespace {

// The run's storage, heap-held so it can be pinned (deliberately leaked)
// when a wedged worker survives shutdown: the zombie thread keeps reading
// the Simulator and the fabric, which therefore must never be freed.
struct LiveRun {
  Simulator sim;
  ThreadExecutor executor;

  LiveRun(std::vector<std::unique_ptr<IProcess>> procs, std::unique_ptr<FaultInjector> faults,
          Simulator::Options sim_opts, int num_procs, const LiveOptions& live)
      : sim(std::move(procs), std::move(faults), std::move(sim_opts)),
        executor(num_procs, live) {}
};

}  // namespace

LiveRunResult run_live_do_all(const ProtocolInfo& info, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                              const LiveOptions& live) {
  cfg.validate();
  Simulator::Options sim_opts;
  sim_opts.strict_one_op = info.strict_one_op && opts.enforce_strict;
  sim_opts.max_stepped_rounds = opts.max_stepped_rounds;
  sim_opts.n_units = cfg.n;
  sim_opts.net = opts.net;

  auto procs = make_processes(info, cfg, opts.protocol_param);
  auto hold = std::make_unique<LiveRun>(std::move(procs), std::move(faults), sim_opts, cfg.t, live);
  hold->sim.set_step_executor(&hold->executor);

  LiveRunResult result;
  const auto start = Clock::now();
  try {
    result.run.metrics = hold->sim.run();
  } catch (...) {
    if (!hold->executor.shutdown()) hold.release();
    throw;
  }
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();

  const bool clean = hold->executor.shutdown();
  result.stats = hold->executor.stats();
  result.stats.wall_seconds = secs;
  if (secs > 0 && result.run.metrics.work_total > 0)
    result.stats.units_per_sec = static_cast<double>(result.run.metrics.work_total) / secs;
  if (!clean) hold.release();  // pin the run for the zombie worker

  result.run.violation = verify_run(info, cfg, result.run.metrics);
  return result;
}

LiveRunResult run_live_do_all(const std::string& protocol, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                              const LiveOptions& live) {
  return run_live_do_all(find_protocol(protocol), cfg, std::move(faults), opts, live);
}

}  // namespace dowork::substrate
