#include "sim/round_pool.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "core/runner.h"

namespace dowork {

namespace {
// One slot per thread: pool workers install their pool's token on entry and
// clear it on exit; every other thread reads the default null.
thread_local const CancelToken* tl_cancel_token = nullptr;
}  // namespace

bool run_cancelled() { return tl_cancel_token != nullptr && tl_cancel_token->cancelled(); }

namespace detail {
void set_cancel_token(const CancelToken* token) { tl_cancel_token = token; }
}  // namespace detail

RoundPool::RoundPool(int threads, std::size_t min_steps_per_shard)
    : min_steps_per_shard_(std::max<std::size_t>(1, min_steps_per_shard)) {
  start_workers(std::max(1, threads) - 1);
}

RoundPool::RoundPool(int threads, const LiveOptions& live)
    : free_schedule_(live.schedule == LiveOptions::Schedule::kFree),
      watchdog_ms_(std::max<std::uint64_t>(1, live.watchdog_ms)),
      join_grace_ms_(live.join_grace_ms) {
  start_workers(std::max(2, threads));
}

RoundPool::~RoundPool() { shutdown(); }

void RoundPool::start_workers(int workers) {
  exited_.assign(static_cast<std::size_t>(workers), false);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (std::size_t w = 0; w < exited_.size(); ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

void RoundPool::run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                          std::vector<Ready>& out) {
  const bool supervised = watchdog_ms_ != 0;
  const std::size_t n = steps.size();
  // Supervised: one shard per step, so a slow step holds back no other and
  // the completion order is the scheduler's.  Unsupervised: at most one
  // shard per evaluating thread.
  const std::size_t max_shards =
      supervised ? n
                 : std::min(static_cast<std::size_t>(threads()), n / min_steps_per_shard_);
  // Inline path: rounds too small to amortize a dispatch (the sequential
  // protocols' 1-2 step rounds, and everything when threads() == 1) run on
  // the calling thread exactly like the serial executor path.  Never when
  // supervised: the deadline must not depend on the step returning.
  if (!supervised && max_shards <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      Action a = eval.eval_step(steps[i]);
      out.push_back(Ready{steps[i], std::move(a)});
    }
    return;
  }

  // Dispatch: carve [0, n) into near-equal contiguous slices.  steps is
  // ascending by id, so shard k's ids all precede shard k+1's.
  const std::size_t shards = std::max<std::size_t>(1, max_shards);
  if (shards_.size() < shards) shards_.resize(shards);
  if (results_.size() < n) results_.resize(n);
  const std::size_t base = n / shards;
  const std::size_t rem = n % shards;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < shards; ++k) {
    Shard& s = shards_[k];
    s.begin = pos;
    pos += base + (k < rem ? 1 : 0);
    s.end = pos;
    s.error = nullptr;
  }

  {
    std::lock_guard<std::mutex> lock(m_);
    eval_ = &eval;
    steps_ = &steps;
    active_shards_ = shards;
    next_shard_ = 0;
    pending_ = shards;
    done_.clear();
    ++generation_;
  }
  // A one-shard round (the supervised pool's one-step rounds) needs one
  // worker; a worker left asleep finds nothing to claim when it next wakes.
  if (shards == 1)
    work_cv_.notify_one();
  else
    work_cv_.notify_all();

  // Unsupervised, the dispatching thread is a full pool member: it claims
  // and evaluates shards until none remain, then waits for the stragglers
  // at the barrier.  Supervised, it only waits -- with the deadline.
  if (!supervised) drain_shards();
  {
    std::unique_lock<std::mutex> lock(m_);
    const auto barrier = [this] { return pending_ == 0; };
    if (!supervised) {
      done_cv_.wait(lock, barrier);
    } else if (!done_cv_.wait_for(lock, std::chrono::milliseconds(watchdog_ms_), barrier)) {
      // Watchdog: cancel the run cooperatively and abort with a structured
      // reason; nothing from this round commits.
      cancel_.cancel();
      throw watchdog_abort(round, steps);
    }
  }

  // Post-barrier: surface the first failure in shard order -- i.e. the one
  // the serial loop would have hit first -- with `out` still untouched, so
  // an aborting round commits nothing, matching the serial executor path
  // byte for byte.
  for (std::size_t k = 0; k < shards; ++k) {
    if (shards_[k].error) std::rethrow_exception(shards_[k].error);
  }
  if (free_schedule_) {
    for (std::size_t i : done_) out.push_back(Ready{steps[i], std::move(results_[i])});
  } else {
    for (std::size_t i = 0; i < n; ++i) out.push_back(Ready{steps[i], std::move(results_[i])});
  }
}

AbortRun RoundPool::watchdog_abort(const Round& round, const std::vector<int>& steps) const {
  std::vector<bool> finished(steps.size(), false);
  for (std::size_t i : done_) finished[i] = true;
  std::size_t missing = 0;
  int first_stalled = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (finished[i]) continue;
    ++missing;
    if (first_stalled < 0) first_stalled = steps[i];
  }
  const std::string proc = std::to_string(first_stalled);
  const std::string ms = std::to_string(watchdog_ms_);
  return AbortRun{"watchdog: " + std::to_string(missing) + " worker(s) missed the " + ms +
                      "ms round deadline (first stalled: proc " + proc + ", round " +
                      round.to_string() + ")",
                  "cause=watchdog proc=" + proc + " missing=" + std::to_string(missing) +
                      " round=" + round.to_string() + " deadline_ms=" + ms};
}

void RoundPool::drain_shards() {
  for (;;) {
    Shard* shard = nullptr;
    StepEval* eval = nullptr;
    const std::vector<int>* steps = nullptr;
    {
      std::lock_guard<std::mutex> lock(m_);
      if (next_shard_ >= active_shards_ || cancel_.cancelled()) return;
      shard = &shards_[next_shard_++];
      eval = eval_;
      steps = steps_;
    }
    eval_shard(*shard, *eval, *steps);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(m_);
      last = (--pending_ == 0);
    }
    if (last) done_cv_.notify_one();
  }
}

void RoundPool::eval_shard(Shard& shard, StepEval& eval, const std::vector<int>& steps) {
  try {
    for (std::size_t i = shard.begin; i < shard.end && !cancel_.cancelled(); ++i) {
      results_[i] = eval.eval_step(steps[i]);
      if (watchdog_ms_ != 0) {
        std::lock_guard<std::mutex> lock(m_);
        done_.push_back(i);
      }
    }
  } catch (...) {
    shard.error = std::current_exception();
  }
}

void RoundPool::worker_main(std::size_t self) {
  detail::set_cancel_token(&cancel_);
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(m_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) break;
      seen = generation_;
    }
    drain_shards();
  }
  detail::set_cancel_token(nullptr);
  {
    std::lock_guard<std::mutex> lock(m_);
    exited_[self] = true;
  }
  exit_cv_.notify_all();
}

bool RoundPool::shutdown() {
  if (shut_down_) return !leaked_;
  shut_down_ = true;
  cancel_.cancel();
  std::vector<bool> exited;
  {
    std::unique_lock<std::mutex> lock(m_);
    stop_ = true;
    work_cv_.notify_all();
    const auto all_exited = [this] {
      return std::find(exited_.begin(), exited_.end(), false) == exited_.end();
    };
    if (watchdog_ms_ == 0)
      exit_cv_.wait(lock, all_exited);
    else
      exit_cv_.wait_for(lock, std::chrono::milliseconds(join_grace_ms_), all_exited);
    exited = exited_;
  }
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (exited[w]) {
      workers_[w].join();
    } else {
      // A worker ignoring the cancel token cannot be joined; detach it and
      // report the leak so the caller pins the run's storage.
      workers_[w].detach();
      leaked_ = true;
    }
  }
  return !leaked_;
}

}  // namespace dowork
