// Round-parallel evaluation pool: shard one round's step list over a fixed
// worker pool, byte-identical to the serial simulator.  It is the one
// in-process executor: `--sim-threads N` runs on it, and so do the live
// rows (run_live_do_all), which add the free schedule and the watchdog.
//
// Within a synchronous round every process's work is independent by
// construction -- all sends land next round, and the adversary's decision
// points sit at the commit boundary (StepEval's contract in simulator.h) --
// so the evaluation phase of step_round is embarrassingly parallel while
// the commit phase must stay serial.  RoundPool is the StepExecutor that
// exploits exactly that split:
//
//   1. SHARD    the step list (already in ascending process id order) into
//               up to `threads` contiguous id ranges of near-equal size;
//   2. EVALUATE each shard on its own thread, in ascending id order within
//               the shard, into the step's result slot (the calling thread
//               participates, so `threads = 8` uses 8 cores with 7 pooled
//               workers);
//   3. BARRIER  until every shard is done (a shard failure aborts the round
//               before anything is handed back);
//   4. COMMIT   by handing the results back in ascending process id -- the
//               simulator then commits them in that order, reproducing the
//               serial interleaving exactly.
//
// Why observable state cannot move a byte: an evaluation reads only the
// process's own state plus the round's already-delivered inbox (never this
// round's commits), and every commit -- ledger records, wake-queue pushes,
// metric bumps, fault-injector decisions, RNG draws -- runs on the
// simulator's thread in ascending id order, exactly as the serial loop
// interleaved them (DESIGN.md "Execution substrates").
// tests/parallel_sim_test.cpp pins serial vs pooled equality
// metric-for-metric and report-byte-for-byte; dowork_fuzz --diff pool and
// the CI --sim-threads determinism diff keep it pinned.
//
// A supervised pool (the LiveOptions constructor) changes three things:
//   * every round is dispatched, one-step rounds included, as one shard per
//     step that the workers claim in ascending id order, and the calling
//     thread only supervises -- a wedged step cannot wedge the thread that
//     runs the deadline;
//   * under the free schedule the results come back in completion order,
//     so the OS scheduler becomes a real adversary: a slow step commits
//     after any faster step claimed behind it;
//   * a round that misses its watchdog_ms deadline trips the pool's cancel
//     token and throws AbortRun before anything is appended.  A worker
//     that ignores the token cannot be joined: shutdown() waits out
//     join_grace_ms, detaches it and reports the leak, and the caller pins
//     the run's storage (run_live_do_all).
//
// Run-shared protocol state is the one thing the pool cannot make
// data-independent by fiat: Protocol D's AgreeMergeCache serves fold
// requests from whichever thread evaluates the recipient, so it builds each
// round's fold once under a mutex and shares it read-only (protocol_d.h)
// -- pure memoization either way, pinned equal by protocol_d_test.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace dowork {

namespace substrate {
struct LiveOptions;
}  // namespace substrate

// Cooperative cancellation flag, shared by every worker of one pool.  A
// std::thread cannot be killed from outside, so the watchdog publishes
// intent here and long-running protocol code polls run_cancelled().
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_release); }
  bool cancelled() const { return flag_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> flag_{false};
};

// True when the calling thread is a pool worker whose run has been
// cancelled (watchdog abort or teardown).  Protocol code that loops inside
// on_round should poll this and return; everywhere else (the serial
// simulator, tests, the main thread) it is false.
bool run_cancelled();

namespace detail {
// Installs/clears the calling thread's cancel token (pool workers only).
void set_cancel_token(const CancelToken* token);
}  // namespace detail

class RoundPool final : public StepExecutor {
 public:
  // `threads` is the total evaluation parallelism (calling thread included):
  // threads - 1 pooled workers are spawned, so RoundPool(1) degenerates to
  // the inline path with no threads at all.  `min_steps_per_shard` bounds
  // the dispatch overhead: a round with fewer than 2x this many live steps
  // is evaluated inline (sequential protocols step 1-2 processes per round
  // and must not pay a barrier for it); tests lower it to 1 to force real
  // sharding at tiny t.
  explicit RoundPool(int threads, std::size_t min_steps_per_shard = 8);
  // Supervised pool: takes the commit schedule, the per-round deadline
  // (watchdog_ms) and the teardown grace (join_grace_ms) from `live`.  The
  // calling thread evaluates nothing, so `threads` workers are spawned, and
  // never fewer than two: one wedged step must leave another evaluating.
  RoundPool(int threads, const substrate::LiveOptions& live);
  ~RoundPool() override;

  RoundPool(const RoundPool&) = delete;
  RoundPool& operator=(const RoundPool&) = delete;

  // Evaluating threads: the workers, plus the calling thread unless it
  // only supervises.
  int threads() const { return static_cast<int>(workers_.size()) + (watchdog_ms_ != 0 ? 0 : 1); }

  // StepExecutor: evaluate the round's steps (sharded, concurrent), append
  // results to `out` in ascending process id order (completion order under
  // the free schedule).  Rethrows the first shard failure (in shard order)
  // after the barrier, and throws the watchdog's AbortRun at the deadline,
  // both before appending anything -- an aborted round commits nothing, per
  // the contract in simulator.h.  After a watchdog abort the stalled worker
  // may still read `eval` and `steps`: both must outlive shutdown(), and
  // the pool takes no further round.
  void run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                 std::vector<Ready>& out) override;

  // A retired process simply never appears in a later step list; the pool
  // only counts the crash in its kill-point census.
  void on_retire(int, ProcState state, KillPoint kp) override { kills_.count(state, kp); }

  const KillCensus& kills() const { return kills_; }

  // Stops and joins the workers; true when every one joined.  A supervised
  // pool waits at most join_grace_ms and detaches a worker that is still
  // inside an evaluation (a leak: the caller must then keep this pool and
  // the Simulator it evaluates against alive forever).  Idempotent.
  bool shutdown();

 private:
  // One contiguous slice [begin, end) of the round's step list, evaluated
  // by exactly one thread per round.
  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::exception_ptr error;
  };

  void start_workers(int workers);
  void worker_main(std::size_t self);
  // Evaluates one shard in ascending id order into results_; a throw from
  // eval_step stops the shard and is stashed in `error` for the
  // post-barrier rethrow.  A cancelled pool starts no further step.
  void eval_shard(Shard& shard, StepEval& eval, const std::vector<int>& steps);
  // Claims shards off next_shard_ until none remain; called by workers and
  // (unsupervised) the dispatching thread alike (monotone claiming order, so
  // a thread that serves several shards serves them in ascending id order).
  void drain_shards();
  // The watchdog's verdict on a round that missed its deadline (called
  // with m_ held): the AbortRun naming the first unfinished step.
  AbortRun watchdog_abort(const Round& round, const std::vector<int>& steps) const;

  // Unsupervised only: a supervised pool always shards one step apiece.
  const std::size_t min_steps_per_shard_ = 1;
  // Supervision, fixed at construction (watchdog_ms_ == 0: unsupervised).
  bool free_schedule_ = false;
  std::uint64_t watchdog_ms_ = 0;
  std::uint64_t join_grace_ms_ = 0;
  CancelToken cancel_;
  KillCensus kills_;
  bool shut_down_ = false;
  bool leaked_ = false;

  std::mutex m_;
  std::condition_variable work_cv_;  // workers wait here for a new round
  std::condition_variable done_cv_;  // the dispatcher waits here for the barrier
  std::condition_variable exit_cv_;  // shutdown waits here for worker exits
  std::uint64_t generation_ = 0;     // bumped once per dispatched round
  bool stop_ = false;
  StepEval* eval_ = nullptr;
  const std::vector<int>* steps_ = nullptr;
  std::vector<Shard> shards_;
  std::vector<Action> results_;     // one slot per step of the round
  std::vector<std::size_t> done_;   // supervised: finished step indices, in completion order
  std::vector<bool> exited_;        // per worker (guarded by m_)
  std::size_t active_shards_ = 0;   // shards of this round, fixed at dispatch
  std::size_t next_shard_ = 0;      // claim cursor (guarded by m_)
  std::size_t pending_ = 0;         // shards not yet evaluated (guarded by m_)
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace dowork
