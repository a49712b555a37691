// Synchronous round-based simulator with crash faults and fast-forward.
//
// Round structure (round r):
//   1. Messages sent in round r-1 are delivered to their recipients.
//   2. Each live process that has mail or whose wake time arrived is stepped
//      (in increasing id order; order is unobservable within a round since
//      all sends land next round).
//   3. The fault injector may crash a stepping process mid-round: the
//      adversary decides whether its work unit completed and how much of its
//      broadcast escaped (paper Section 2.1).  Only a non-idle action is
//      inspected; an idle one cannot be crashed (fault_injector.h).
//   4. If no messages are in flight, the simulator jumps straight to the
//      earliest wake time over live processes ("fast-forward"), which is what
//      makes Protocol C's 2^(n+t)-round executions exactly simulable.
//
// The run ends when every process has retired (crashed or terminated), or on
// deadlock (nothing can ever happen again), or at the round cap.
//
// Hot-path design (see DESIGN.md "Simulator hot path"):
//   * Scheduling is wake-queue driven, not scan driven.  IProcess::next_wake
//     is monotone and only changes when the process is stepped (the contract
//     in process.h), so the simulator queries it exactly once per step,
//     caches the result in wake_[p], and files p in a monotone wake
//     calendar (a radix heap: Ahuja, Mehlhorn, Orlin and Tarjan, 1990).
//     A round steps only the processes that received mail plus the
//     calendar's due set -- O(steps) amortized instead of O(t) virtual
//     calls per round -- and fast-forward scans one bucket instead of
//     rescanning every process.
//     Each process with a u64 wake sits in exactly one of 65 buckets, the
//     one of its exact cached wake relative to floor_ (the round the last
//     due pop reached): no lower-bound keys, no stale or dead entries.  A
//     deadline re-armed within its bucket (Protocol B's message-relative
//     timeouts move on every checkpoint received) is one cache write;
//     across buckets, an O(1) relink.  Wakes at or past 2^64 (Protocol
//     C's eons) sit in a lazy min-heap instead, keyed at lower bounds that
//     are re-keyed when they reach the top; dead entries are dropped there.
//   * Delivery is a broadcast ledger, not per-pair envelopes: each send is
//     recorded ONCE (DeliveryRecord: audience + moved payload reference +
//     the crash prefix cut + sent round), so a round costs
//     O(broadcasts + unicasts) regardless of fan-out -- zero per-recipient
//     allocation or shared_ptr refcount traffic.  Recipients read the ledger lazily through
//     InboxView (message.h documents the iteration-order and prefix-cut
//     guarantees); per-recipient mail membership is precomputed into a
//     bitset (word-level ORs of shared audience sets) to drive the step
//     list and O(1) empty-inbox checks.  Message metrics are bumped
//     arithmetically per record (audience size), never per pair.
//   * An idle action commits as its reschedule alone: no strict check, no
//     SimSnapshot, no inspect() call, no ledger or metric writes.  The fault
//     injector never sees it (decision point 3 returns a plan only for a
//     non-idle action), so in Protocols A and B, where nearly every step is
//     a passive process recording a checkpoint, such a receipt costs its
//     ingest plus one reschedule.
//   * the live-process count is an O(1) counter kept on crash/terminate, not a
//     scan; it is consulted once per non-idle step for the fault injector's
//     SimSnapshot.
// None of this changes observable behavior: scheduling decisions, delivery
// order and metrics are bit-for-bit those of the original O(t)-scan,
// envelope-per-pair simulator (tests/golden/ pins the JSON reports
// byte-for-byte).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/metrics.h"
#include "sim/network_model.h"
#include "sim/observable.h"
#include "sim/process.h"
#include "util/bitset.h"
#include "util/rng.h"

namespace dowork {

enum class ProcState : std::uint8_t { kAlive, kCrashed, kTerminated };

// Thrown by a StepExecutor to end the run with a structured outcome instead
// of crashing or hanging: Simulator::run catches it, stamps
// RunMetrics::aborted / aborted_reason, and returns normally (the verifier
// then reports the reason as the violation).  The live executors'
// watchdogs throw it when a step misses its round deadline.  Executors
// may only throw before handing back any evaluated step, so an aborted
// round commits nothing.
struct AbortRun {
  std::string reason;
  // Machine-readable "key=value ..." companion, copied to
  // RunMetrics::abort_detail (may be empty).  By convention the first pair
  // is cause=<bucket>; compare_bench.py's abort census groups on it.
  std::string detail;
};

// The evaluation half of one step: runs process p's on_round against the
// current round's inbox, exactly once, without committing anything.
// Implemented by Simulator; handed to the StepExecutor so worker threads
// can evaluate steps against an object whose lifetime spans the whole run
// (never against a per-round stack frame).  Distinct processes are
// data-independent -- eval_step(p) and eval_step(q) may run concurrently
// for p != q -- because an evaluation reads only process p's own state plus
// the round's already-delivered inbox, never this round's commits.
class StepEval {
 public:
  virtual Action eval_step(int proc) = 0;

 protected:
  ~StepEval() = default;
};

// Executor hook for the round's evaluation phase.  The default (no
// executor) is the serial in-place path, byte-identical to the historical
// simulator; RoundPool (round_pool.h) fans evaluations out to a worker pool
// and the socket substrate (src/substrate/) to worker OS processes.
// Commits always run on the simulator's own thread, in the order the
// executor returns -- ascending process id reproduces the serial
// interleaving exactly (the equivalence argument lives in DESIGN.md
// "Execution substrates").
class StepExecutor {
 public:
  virtual ~StepExecutor() = default;

  // One evaluated step, ready to commit.
  struct Ready {
    int proc;
    Action action;
  };

  // Evaluate the round's on_round calls.  `steps` is the alive subset of
  // the step list in ascending id order; the executor must call
  // eval.eval_step(p) exactly once per entry and append every result to
  // `out` in the order commits should happen.  May throw AbortRun (before
  // appending anything) to end the run with a structured reason.
  virtual void run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                         std::vector<Ready>& out) = 0;

  // A commit retired process `proc` (crash or terminate); `kp` classifies a
  // crash's kill point and is kNone for termination.  Called from the
  // commit phase, between run_steps calls.
  virtual void on_retire(int proc, ProcState state, KillPoint kp) = 0;
};

// The simulator is itself the SimObservable it hands the fault injector at
// run start (FaultInjector::attach).  Its four accessors read the run's
// shape, the retirement flags and each process's announced progress, so
// adaptive adversaries (src/adversary/) observe exactly what the model lets
// them.
class Simulator final : public SimObservable, public StepEval {
 public:
  struct Options {
    // Enforce the paper's one-operation-per-round accounting: a step may
    // perform a work unit or emit one broadcast (all sends sharing a
    // payload), not both; poll replies are exempt.  Violations throw.
    bool strict_one_op = false;
    // Safety cap on *stepped* rounds (fast-forward jumps don't count).
    std::uint64_t max_stepped_rounds = 50'000'000;
    // Number of distinct work units (for multiplicity tracking); 0 = none.
    std::int64_t n_units = 0;
    // Network weather (sim/network_model.h).  The default is a no-op spec:
    // the run never enters the network delivery path and is bit-for-bit the
    // crash-only execution.
    NetSpec net;
  };

  // Called whenever a unit of work is actually performed (post fault
  // filtering).  Used by examples/reactor_valves.cpp to attach effects to units.
  using WorkSink = std::function<void(int proc, std::int64_t unit, const Round& round)>;

  Simulator(std::vector<std::unique_ptr<IProcess>> processes,
            std::unique_ptr<FaultInjector> faults, Options options);

  void set_work_sink(WorkSink sink) { work_sink_ = std::move(sink); }

  // Installs the round-evaluation executor (null = the serial path).  Must
  // be set before run(); the executor must outlive the run, and -- because
  // worker threads evaluate against this object -- the Simulator must stay
  // alive until the executor's threads are joined.
  void set_step_executor(StepExecutor* executor) { executor_ = executor; }

  // StepEval: evaluate process `proc` against the round being stepped
  // (cur_round_).  Called by executors, possibly from worker threads.
  Action eval_step(int proc) override;

  // Runs to completion and returns the metrics.  May be called once.
  RunMetrics run();

  // SimObservable: the adaptive adversary's committed-state window
  // (sim/observable.h documents the contract).
  int num_procs() const override { return static_cast<int>(procs_.size()); }
  std::int64_t num_units() const override { return opt_.n_units; }
  bool is_active(int proc) const override {
    return state_[static_cast<std::size_t>(proc)] == ProcState::kAlive;
  }
  // On the executor path a process is evaluated before its commit, so until
  // then the adversary reads the value held from before evaluation -- what
  // the serial loop shows for a process not yet stepped.
  std::int64_t announced_progress(int proc) const override {
    const std::size_t p = static_cast<std::size_t>(proc);
    if (!held_progress_.empty() && held_progress_[p] != kNotHeld) return held_progress_[p];
    return procs_[p]->known_done_units();
  }

 private:
  // The calendar's 65 buckets: bucket 0 holds wake == floor_, bucket i >= 1
  // the wakes whose highest bit differing from floor_ is bit i - 1.  Every
  // queued wake is >= floor_, so bucket ranges ascend with i.
  static constexpr int kBuckets = 65;
  // bucket_[p] beyond the bucket indexes: p is in the promoted tier, or
  // queued nowhere (next-round list, mail-only, or retired).
  static constexpr std::uint8_t kPromoted = 0xFE;
  static constexpr std::uint8_t kUnqueued = 0xFF;

  // One entry of the promoted tier's lazy min-heap.  It is live while
  // bucket_[p] == kPromoted and its key is at or below wake_[p] (a lower
  // bound, re-keyed when it reaches the top); any other entry is dead and
  // is dropped when it reaches the top, never eagerly removed.
  struct WakeEntry {
    Round wake;
    int proc;
  };
  // Min-heap order for std::push_heap/pop_heap (which build max-heaps, hence
  // the inversion); a stateless functor so both inline it.  Ties pop in
  // arbitrary order: all due entries of a round are collected and the step
  // list is sorted by process id afterwards.
  struct WakeLater {
    bool operator()(const WakeEntry& a, const WakeEntry& b) const { return b.wake < a.wake; }
  };

  void step_round(const Round& r);
  // One step, split at the evaluation/commit boundary so an executor can
  // run evaluations concurrently while commits stay serial: eval_one runs
  // on_round against the round's inbox (thread-safe across distinct p);
  // commit_step validates, consults the fault injector, commits work and
  // sends to the ledger, and retires or reschedules.  The serial path is
  // eval_one immediately followed by commit_step per process -- observably
  // identical to the historical single-function step.
  Action eval_one(std::size_t p, const Round& r);
  // commit_step reschedules p from next_round_ (r + 1).
  void commit_step(std::size_t p, const Round& r, Action a);
  // Network delivery path (net_active_ only): runs the committed record
  // through the injector's message hook, the partition filter, the loss
  // draws and the latency draw (network_model.h documents the order), then
  // files it in the ledger or the future buffer.
  void commit_record(DeliveryRecord rec, const Round& r);
  void validate_strict(int proc, const Action& a) const;
  // Marks p crashed or terminated and takes it off the wake queue.
  void retire(std::size_t p, ProcState to);
  // Re-queries next_wake(now) for p (clamped forward to `now`) and updates
  // the cache.  "Run again next round" answers go straight onto next_step_
  // (the common case for active processes) and take p off the calendar;
  // so does never (mail-only).  Neither writes wake_[p]: it is read only
  // for a process queued in a bucket or the promoted tier.  A u64 wake
  // that stays in p's bucket only writes wake_[p]; one that changes bucket
  // relinks p.  A promoted wake pushes an entry when p enters the tier or
  // its wake moves earlier.
  void reschedule(std::size_t p, const Round& now);
  // Appends every process whose wake is at or before round r to the step
  // list, taking it off the queue.  Every queued wake is >= r here, so the
  // due set is the wakes equal to r: rebasing floor_ to r relinks the one
  // bucket that straddles r, after which bucket 0 is exactly that set.
  void pop_due(const Round& r);
  // Exact min wake over live processes, or null when no live process has a
  // timer: the minimum of the first non-empty bucket (bucket ranges
  // ascend), else peek_promoted.
  const Round* peek_min_wake();
  // Exact min wake of the promoted tier, or null.  Drops dead entries; a
  // live top keyed below its process's wake is re-keyed to that wake and
  // sifted down, so the top is returned only once its key equals wake_[p].
  const Round* peek_promoted();
  // The calendar bucket of u64 wake w >= floor_.
  std::uint8_t bucket_of(std::uint64_t w) const {
    return w == floor_ ? 0 : static_cast<std::uint8_t>(64 - __builtin_clzll(w ^ floor_));
  }
  void link(std::size_t p, std::uint8_t b);
  // Takes p out of whichever tier holds it (a no-op when unqueued).
  void dequeue(std::size_t p);

  std::vector<std::unique_ptr<IProcess>> procs_;
  std::unique_ptr<FaultInjector> faults_;
  Options opt_;
  WorkSink work_sink_;
  StepExecutor* executor_ = nullptr;
  std::vector<int> live_steps_;                // executor path: alive step subset; reused
  std::vector<StepExecutor::Ready> ready_;     // executor path: evaluated steps; reused
  // Executor path: each live step's known_done_units() from before the
  // round's evaluation, held until that step commits (kNotHeld otherwise).
  static constexpr std::int64_t kNotHeld = std::numeric_limits<std::int64_t>::min();
  std::vector<std::int64_t> held_progress_;

  std::vector<ProcState> state_;
  int alive_ = 0;
  // The delivery plane: sends of the round being stepped land in ledger_,
  // each record stamped with its sent round; at the next round's delivery
  // the buffers swap and arriving_ holds the records recipients view
  // through InboxView for exactly one round.  Both keep their capacity
  // round over round.  mail_bits_ marks the (post-cut) recipients, driving
  // the step list and O(1) inbox-emptiness.
  std::vector<DeliveryRecord> ledger_;
  std::vector<DeliveryRecord> arriving_;
  // Network plane (populated only when net_active_): records a latency draw
  // or adversarial message fault holds back, keyed by delivery round.  The
  // no-net path never touches it.
  std::map<Round, std::vector<DeliveryRecord>> future_;
  NetworkModel net_model_;
  Rng net_rng_{0};
  bool net_active_ = false;        // net model live or injector faults messages
  bool wants_msg_faults_ = false;  // cached FaultInjector::wants_message_faults
  DynBitset mail_bits_;
  bool mail_dirty_ = false;  // mail_bits_ has set bits to clear next delivery
  // Cached next_wake per process; valid only while p is queued in a
  // bucket or the promoted tier (bucket_[p] != kUnqueued).
  std::vector<Round> wake_;
  // The wake calendar: each bucket an intrusive doubly linked list threaded
  // through next_/prev_ (-1 ends a list), headed by head_[b].
  std::uint64_t floor_ = 0;                   // round of the last due pop
  std::array<std::int32_t, kBuckets> head_;
  std::vector<std::int32_t> next_;
  std::vector<std::int32_t> prev_;
  std::vector<std::uint8_t> bucket_;          // p's bucket, kPromoted or kUnqueued
  std::vector<WakeEntry> promoted_;           // lazy min-heap of wakes >= 2^64
  std::vector<int> step_list_;                // processes to step this round; reused
  std::vector<int> next_step_;                // fast path: wake == next round
  std::vector<std::uint8_t> queued_;          // step/next-step membership flags
  Round cur_round_;                           // round being stepped
  // cur_round_ + 1 while stepping; swapped in to advance, so between rounds
  // it holds the round stepped last (Round{0} before the first).
  Round next_round_;
  // Sum of alive_ over the stepped rounds not yet folded into
  // RunMetrics::available_processor_steps: one u64 add per stepped round
  // instead of a promoted one, folded at each fast-forward jump and when
  // the loop exits.
  std::uint64_t stepped_alive_ = 0;
  RunMetrics metrics_;
  bool ran_ = false;
};

// Convenience: build, run, and return metrics in one call.
RunMetrics run_simulation(std::vector<std::unique_ptr<IProcess>> processes,
                          std::unique_ptr<FaultInjector> faults, Simulator::Options options,
                          Simulator::WorkSink sink = nullptr);

}  // namespace dowork
