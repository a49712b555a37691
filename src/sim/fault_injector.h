// Crash-fault injection.
//
// The adversary may crash a process at any point during its round.  Per the
// paper (Section 2.1): a process can crash in the middle of a broadcast so
// that "only some subset of the processes receive the message", and it can
// crash immediately after performing a unit of work, before reporting it.
// CrashPlan captures both degrees of freedom.  The simulator never allows
// the last surviving process to crash: the problem statement only requires
// completion of the work in executions where at least one process survives,
// and all protocols assume at most t-1 failures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/process.h"
#include "util/round.h"
#include "util/rng.h"

namespace dowork {

struct CrashPlan {
  // Does the in-progress work unit (if any) complete before the crash?
  bool work_completes = false;
  // Which of the in-progress messages actually leave the process.
  // Interpreted as a prefix length into the action's *flattened* message
  // sequence -- sends in Action::sends order, each audience enumerated in
  // ascending id order -- so a mid-broadcast cut reaches the lowest-id
  // recipients; SIZE_MAX means "all".
  std::size_t deliver_prefix = 0;

  friend bool operator==(const CrashPlan&, const CrashPlan&) = default;
};

// The adversary's verdict on one committed send (decision point 4 below):
// erase the record, or hold it back for `delay` extra rounds beyond the
// normal next-round delivery.  A drop wins over any delay.
struct MessageFault {
  bool drop = false;
  std::uint64_t delay = 0;

  friend bool operator==(const MessageFault&, const MessageFault&) = default;
};

struct SimSnapshot {
  int t = 0;            // total number of processes
  int alive = 0;        // processes neither crashed nor terminated
  int crashed_so_far = 0;
};

class SimObservable;

// Crash-decision points, in the order the simulator visits them:
//   1. attach()         — once, before round 0: hands adaptive injectors the
//                         read-only committed-state view (sim/observable.h),
//                         valid for the whole run.
//   2. on_round_start() — once per *stepped* round (fast-forwarded idle
//                         stretches are skipped), before any process steps.
//   3. inspect()        — per stepping process: the returned CrashPlan folds
//                         the paper's two mid-round degrees of freedom into
//                         one decision — the mid-broadcast prefix cut
//                         (deliver_prefix) and the crash-after-the-unit-but-
//                         before-reporting-it choice (work_completes).  A
//                         plan is only ever returned for a non-idle action
//                         (Action::idle() false): the paper's adversary
//                         crashes a process at one of its steps, so a crash
//                         is addressed by (process, k-th non-idle action),
//                         the key ScheduledFaults replays and fuzz traces
//                         record (fuzz/trace.h checks it).
//   4. on_message()     — per committed send (post crash cut), when the
//                         injector opted in via wants_message_faults(): the
//                         returned MessageFault drops the record or delays
//                         it, modeling an adversary that owns the wire
//                         instead of the processes.  The observable-state
//                         rules are identical to the crash points: the
//                         injector sees the committed record and the same
//                         SimObservable window it was attached with, nothing
//                         more.
// The scripted injectors below ignore hooks 1 and 2 (the defaults are
// no-ops), and only a ScheduledFaults given message entries takes hook 4,
// so crash-only executions are bit-for-bit unchanged.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  // Decision point 1: offered once before the run; default: ignore the view.
  virtual void attach(const SimObservable& /*sim*/) {}
  // Decision point 2: a new round is about to step its processes.
  virtual void on_round_start(const Round& /*round*/) {}
  // Decision point 3: inspect the action process `proc` is about to take in
  // `round`; return a CrashPlan to kill it mid-round, or nullopt to let it
  // live.
  virtual std::optional<CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                           const SimSnapshot& snap) = 0;
  // Decision point 4: `rec` (sent by `from` in `round`, crash cut already
  // applied) is about to enter the delivery plane.  Only consulted when
  // wants_message_faults() returned true at attach time, which also routes
  // the run through the network delivery path; injectors that leave both
  // defaults keep the crash-only hot path bit-for-bit.
  virtual std::optional<MessageFault> on_message(int /*from*/, const Round& /*round*/,
                                                 const DeliveryRecord& /*rec*/) {
    return std::nullopt;
  }
  // Cached by the simulator once per run, alongside attach().
  virtual bool wants_message_faults() const { return false; }
};

// No process ever fails.
class NoFaults final : public FaultInjector {
 public:
  std::optional<CrashPlan> inspect(int, const Round&, const Action&,
                                   const SimSnapshot&) override {
    return std::nullopt;
  }
};

// Per-process 1-based call ordinals: next(p) counts p's calls so far, this
// one included.  ScheduledFaults keys its entries by them, and fuzz traces
// record with the same counter.
class ProcOrdinals {
 public:
  std::uint64_t next(int proc) {
    const std::size_t p = static_cast<std::size_t>(proc);
    if (counts_.size() <= p) counts_.resize(p + 1, 0);
    return ++counts_[p];
  }

 private:
  std::vector<std::uint64_t> counts_;
};

// Explicit schedule: kill `proc` on the k-th round in which it takes a
// non-idle action (k counted from 1), with the given plan, and fault the
// k-th record `from` commits.  Used by tests to craft exact adversarial
// executions and by fuzz traces (fuzz/trace.h) to replay a frozen
// adversary.
class ScheduledFaults final : public FaultInjector {
 public:
  struct Entry {
    int proc = -1;
    std::uint64_t on_nth_action = 1;  // 1 = first non-idle action
    CrashPlan plan;

    friend bool operator==(const Entry&, const Entry&) = default;
  };
  struct MessageEntry {
    int from = -1;
    std::uint64_t on_nth_message = 1;  // 1 = the sender's first on_message call
    MessageFault fault;

    friend bool operator==(const MessageEntry&, const MessageEntry&) = default;
  };
  explicit ScheduledFaults(std::vector<Entry> entries, std::vector<MessageEntry> messages = {});

  std::optional<CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                   const SimSnapshot& snap) override;
  std::optional<MessageFault> on_message(int from, const Round& round,
                                         const DeliveryRecord& rec) override;
  // Only a schedule that faults messages routes records through the hook.
  bool wants_message_faults() const override { return !messages_.empty(); }

 private:
  std::vector<Entry> entries_;
  std::vector<MessageEntry> messages_;
  ProcOrdinals actions_;   // non-idle inspect() calls
  ProcOrdinals commits_;   // on_message() calls
};

// Worst-case style adversary for the sequential protocols: lets whichever
// process is currently doing work perform `units_before_crash` units, then
// crashes it (work unit completing, broadcasts truncated to
// `deliver_prefix`), until `max_crashes` processes have died.  This produces
// the takeover cascades that drive the paper's upper-bound analyses.
class WorkCascadeFaults final : public FaultInjector {
 public:
  WorkCascadeFaults(std::uint64_t units_before_crash, int max_crashes,
                    std::size_t deliver_prefix = 0, bool crash_completes_unit = true);

  std::optional<CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                   const SimSnapshot& snap) override;

 private:
  std::uint64_t units_before_crash_;
  int max_crashes_;
  std::size_t deliver_prefix_;
  bool crash_completes_unit_;
  ProcOrdinals units_done_;
};

// Crashes any process the moment it performs the given work unit (the unit
// completes; in-progress sends are truncated to `deliver_prefix`), up to
// max_crashes times.  With unit = n this is the Section 3 adversary: every
// takeover finishes the tail of the work and dies before its final report,
// which drives the naive most-knowledgeable-takeover protocol to Theta(n +
// t^2) effort while Protocol C's fault detection keeps it linear.
class CrashOnUnitFaults final : public FaultInjector {
 public:
  CrashOnUnitFaults(std::int64_t unit, int max_crashes, std::size_t deliver_prefix = 0)
      : unit_(unit), max_crashes_(max_crashes), deliver_prefix_(deliver_prefix) {}

  std::optional<CrashPlan> inspect(int, const Round&, const Action& action,
                                   const SimSnapshot& snap) override {
    if (snap.crashed_so_far >= max_crashes_) return std::nullopt;
    if (!action.work || *action.work != unit_) return std::nullopt;
    return CrashPlan{/*work_completes=*/true, deliver_prefix_};
  }

 private:
  std::int64_t unit_;
  int max_crashes_;
  std::size_t deliver_prefix_;
};

// Each stepped, non-idle round every live process crashes with probability p
// (independent draws) until max_crashes have occurred.  Broadcast delivery
// on crash is a random prefix; the pending unit completes with prob 1/2.
class RandomFaults final : public FaultInjector {
 public:
  RandomFaults(double p_per_round, int max_crashes, std::uint64_t seed);

  std::optional<CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                   const SimSnapshot& snap) override;

 private:
  double p_;
  int max_crashes_;
  Rng rng_;
};

}  // namespace dowork
