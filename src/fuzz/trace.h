// Decision traces: every adversary choice of one run, frozen as a value.
//
// The fuzzer's reproducibility story rests on one observation about the
// simulator: the only channels through which an adversary influences an
// execution are the FaultInjector decision points (sim/fault_injector.h) --
// the CrashPlans returned from inspect() and the MessageFaults returned from
// on_message() -- plus the NetSpec-seeded network draws, which are already
// re-derivable from the spec.  So a run is fully determined by (scenario
// fields, the decisions actually taken), regardless of how much hidden
// state or randomness the strategy consulted to take them.
//
// A decision is addressed the way the paper's adversary picks it: a crash
// by (process, its k-th non-idle action) -- a ScheduledFaults::Entry -- and
// a message fault by (sender, its k-th on_message call).  RecordingFaults
// wraps the scenario's own injector and writes every non-null decision into
// a Trace under that key; a frozen trace replays through a plain
// ScheduledFaults that never consults a strategy.  Idle inspections carry
// no key, so a change that adds or skips them moves no recorded decision.
// Replaying a trace through the unchanged simulator reproduces the recorded
// run bit-for-bit: same rows, same margins, same violation text.
//
// The async substrate takes its crashes through the same decision point, so
// an async trace carries them as well; its message delays are seeded, like
// the network draws.
//
// Traces serialize to a line-oriented text format (docs/FUZZING.md) so a CI
// campaign artifact can be replayed locally:  `dowork_fuzz --replay FILE`.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "sim/fault_injector.h"

namespace dowork::fuzz {

// The recorded outcome, for replay verification: a replay must reproduce
// every field exactly (rounds is the formatted column, so Protocol C's
// "~2^k" values compare too).
struct TraceOutcome {
  bool ok = false;
  std::uint64_t work = 0;
  std::uint64_t messages = 0;
  std::uint64_t effort = 0;
  std::uint64_t crashes = 0;
  std::string rounds;
  std::string violation;  // empty when ok
  friend bool operator==(const TraceOutcome&, const TraceOutcome&) = default;
};

struct Trace {
  // Scenario identity -- enough to rebuild the Scenario value exactly.
  // Only rep 0 is traceable (the fuzzer always runs repetitions = 1); the
  // seeded components fold `rep` into their streams, so a nonzero rep would
  // not survive the round trip through to_scenario().
  std::string id;
  std::string substrate = "sync";  // "sync" or "async"
  std::string protocol;
  std::int64_t n = 0;
  int t = 0;
  std::uint64_t seed = 0;
  std::string faults;  // FaultSpec::to_string()
  std::map<std::string, std::int64_t> params;

  // The frozen adversary, in decision order.
  std::vector<ScheduledFaults::Entry> crashes;
  std::vector<ScheduledFaults::MessageEntry> message_faults;

  TraceOutcome outcome;

  // Line-oriented text form; parse() accepts exactly what to_string() emits
  // and throws std::invalid_argument otherwise.  parse(to_string()) is the
  // identity.
  std::string to_string() const;
  static Trace parse(const std::string& text);

  // Rebuild the Scenario this trace describes.  With frozen = true the
  // scenario's injector_override is a ScheduledFaults over the recorded
  // decisions; with frozen = false the spec's own injector is rebuilt and
  // the run is re-derived from seeds alone.  Both must reproduce `outcome`
  // exactly.
  harness::Scenario to_scenario(bool frozen) const;

  friend bool operator==(const Trace&, const Trace&) = default;
};

// Wraps the scenario's injector, forwarding every call and recording the
// non-null decisions into `out` (borrowed; must outlive the run).  Throws
// std::logic_error when the inner injector returns a crash plan for an idle
// action, which has no (process, k-th non-idle action) key.
class RecordingFaults final : public FaultInjector {
 public:
  RecordingFaults(std::unique_ptr<FaultInjector> inner, Trace* out);

  void attach(const SimObservable& sim) override;
  void on_round_start(const Round& round) override;
  std::optional<CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                   const SimSnapshot& snap) override;
  std::optional<MessageFault> on_message(int from, const Round& round,
                                         const DeliveryRecord& rec) override;
  bool wants_message_faults() const override;

 private:
  std::unique_ptr<FaultInjector> inner_;
  Trace* out_;
  ProcOrdinals actions_;  // non-idle inspect() calls, as ScheduledFaults counts
  ProcOrdinals commits_;  // on_message() calls
};

// Copy of `s` whose injector_override records into `out`; also fills the
// trace's scenario-identity fields.  `out` must outlive every run of the
// returned scenario.  The caller copies the finished row into out->outcome
// (fill_outcome below).
harness::Scenario with_recording(const harness::Scenario& s, Trace* out);

void fill_outcome(const harness::ScenarioResult& row, Trace* out);

// Run one scenario (repetitions must be 1) with recording; returns the row
// and the completed trace.
struct RecordedRun {
  harness::ScenarioResult row;
  Trace trace;
};
RecordedRun run_recorded(const harness::Scenario& s, const std::string& experiment = "fuzz");

// Re-execute a trace (frozen by default) and return the resulting row; the
// caller compares against trace.outcome (outcome_of below) for the
// bit-identity check.
harness::ScenarioResult replay(const Trace& trace, bool frozen = true);

// The outcome fields of a row, for comparison against Trace::outcome.
TraceOutcome outcome_of(const harness::ScenarioResult& row);

}  // namespace dowork::fuzz
