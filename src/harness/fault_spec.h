// Declarative fault-injector specification.
//
// A Scenario must be a value (copyable, comparable, printable) so that sweeps
// can be generated up front, fanned out across threads, and logged; but a
// FaultInjector is stateful and single-run.  FaultSpec is the bridge: it
// names one of the simulator's adversaries plus its knobs, builds a fresh
// injector per run via make(), and round-trips through to_string()/parse()
// so scenario ids and JSON rows identify the exact adversary.
//
// Since the network-realism PR a FaultSpec composes two orthogonal
// components: an optional *crash* component (one of the five process
// adversaries below) and an optional *network* component (latency, loss,
// partitions -- sim/network_model.h).  Each component is a typed sub-struct;
// the crash component is a variant over them, so a spec physically cannot
// carry another kind's knobs.
//
// ## The string grammar accepted by parse()
//
// parse() accepts exactly the language below (and throws
// std::invalid_argument on anything else); parse(to_string()) is the
// identity, and to_string(parse()) is a fixed point.  No whitespace is
// permitted anywhere.
//
//   spec      := part (";" part)*      -- ";" splits at paren depth 0 only
//   part      := crash_part | net_part -- at most one of each, any order
//   crash_part:= ["crash="] crash      -- the bare v1 string still parses
//   crash     := "none" | cascade | on_unit | random | scheduled | adaptive
//   cascade   := "cascade(units=" U64 ",crashes=" INT ",prefix=" PREFIX
//                ",completes=" BOOL ")"
//   on_unit   := "on_unit(unit=" I64 ",crashes=" INT ",prefix=" PREFIX ")"
//   random    := "random(p=" DOUBLE ",crashes=" INT ",seed=" U64 ")"
//   scheduled := "scheduled(" entry (";" entry)* ")"     -- may be empty: "scheduled()"
//   entry     := PROC "@" NTH ":" BOOL ":" PREFIX        -- proc, action ordinal, plan
//   adaptive  := "adaptive:" STRATEGY "(crashes=" INT ["," jam] ",seed=" U64 ")"
//   jam       := "jam=" INT            -- message-fault budget; omitted when 0
//   net_part  := "net=(" netfields ",seed=" U64 ")"      -- active fields only:
//                "lat=" U64 ".." U64 | "drop=" DOUBLE | "part=" window (";" window)*
//   window    := U64 ".." U64 "@" INT                    -- split..heal@cut
//
//   PREFIX   := "all" | U64    -- how many of the dying broadcast's sends
//                                 escape; "all" round-trips SIZE_MAX, so a
//                                 numeric prefix stays below it
//   U64, I64, INT := decimal digits only (no sign, nothing after them), at
//               most 2^64 - 1, 2^63 - 1 and 2^31 - 1 respectively
//   BOOL     := "0" | "1"
//   DOUBLE   := shortest %g form that re-parses to the identical double
//   STRATEGY := a name registered in src/adversary/strategies.h ("chain",
//               "greedy", "splitter", "restart", "jammer"); anything else is
//               rejected at parse time, not at make() time
//
// to_string() emits the bare crash string when the network component is a
// no-op (so every pre-network spec renders byte-identically), "net=(...)"
// alone for a pure network spec, and "crash=...;net=(...)" when both
// components are active.
//
// Examples (all produced by the convenience constructors below):
//   none
//   cascade(units=129,crashes=63,prefix=1,completes=1)
//   on_unit(unit=63,crashes=31,prefix=0)
//   random(p=0.05,crashes=15,seed=42)
//   scheduled(0@1:0:4;3@9:1:all)
//   adaptive:greedy(crashes=15,seed=7)
//   adaptive:jammer(crashes=0,jam=8,seed=0)
//   net=(lat=1..4,seed=3)
//   crash=cascade(units=2,crashes=7,prefix=1,completes=1);net=(drop=0.05,seed=11)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/network_model.h"

namespace dowork::harness {

// --- Crash-component sub-structs (one per adversary kind) -------------------

// WorkCascadeFaults: kill the currently-working process every
// `units_before_crash` committed units (the takeover-cascade rhythm).
struct CascadeSpec {
  std::uint64_t units_before_crash = 1;
  // Total crash budget; the simulator additionally never lets the last
  // survivor die.
  int max_crashes = 0;
  // Broadcast truncation on crash -- the number of the dying process's
  // in-progress sends that still escape (paper Section 2.1: "only some
  // subset of the processes receive the message").  0 = nothing escapes,
  // SIZE_MAX (spelled "all" in the grammar) = the full broadcast.
  std::size_t deliver_prefix = 0;
  // Does the unit in progress complete before the crash?  false models
  // dying *during* the unit, so a successor must redo it.
  bool crash_completes_unit = true;
  friend bool operator==(const CascadeSpec&, const CascadeSpec&) = default;
};

// CrashOnUnitFaults: the 1-based unit id whose performance triggers the
// crash (with unit = n this is the Section 3 adversary that kills every
// most-knowledgeable process at the finish line).
struct OnUnitSpec {
  std::int64_t unit = 0;
  int max_crashes = 0;
  std::size_t deliver_prefix = 0;
  friend bool operator==(const OnUnitSpec&, const OnUnitSpec&) = default;
};

// RandomFaults: per-round crash probability for every live, non-idle
// process.  make(rep) draws from seed + rep, so repetitions of one scenario
// explore different schedules while staying reproducible.
struct RandomSpec {
  double p = 0.0;
  int max_crashes = 0;
  std::uint64_t seed = 0;
  friend bool operator==(const RandomSpec&, const RandomSpec&) = default;
};

// ScheduledFaults: an explicit kill list -- (proc, its k-th non-idle
// action, CrashPlan) triples, applied exactly as written.  Used by tests
// and the protocol_d experiments to craft exact executions.
struct ScheduledSpec {
  std::vector<ScheduledFaults::Entry> entries;
  friend bool operator==(const ScheduledSpec&, const ScheduledSpec&) = default;
};

// adversary::AdaptiveFaults around a registered strategy
// (src/adversary/strategies.h): crash budget, optional message-fault budget
// ("jam", decision point 4 -- only the network strategies spend it), and the
// seed the stochastic strategies draw from (seed + rep per repetition; the
// deterministic ones ignore it but keep it in their identity).
struct AdaptiveSpec {
  std::string strategy;
  int max_crashes = 0;
  int max_message_faults = 0;
  std::uint64_t seed = 0;
  friend bool operator==(const AdaptiveSpec&, const AdaptiveSpec&) = default;
};

// --- The composed spec ------------------------------------------------------

struct FaultSpec {
  // Kind values double as variant indices (static_asserted in the .cpp);
  // kNone is the monostate alternative.
  enum class Kind : std::uint8_t { kNone, kCascade, kOnUnit, kRandom, kScheduled, kAdaptive };

  using Crash =
      std::variant<std::monostate, CascadeSpec, OnUnitSpec, RandomSpec, ScheduledSpec,
                   AdaptiveSpec>;

  // The crash component; monostate (the default) = no process ever fails.
  Crash crash;
  // The network component; a default NetSpec is a no-op and renders as
  // nothing.  The harness forwards it to the substrate (with seed + rep for
  // the synchronous simulator's dedicated network Rng), so crash schedule
  // and weather compose without either knowing about the other.
  NetSpec net;

  Kind kind() const { return static_cast<Kind>(crash.index()); }

  // Fresh injector for one run (the crash component only; the caller wires
  // `net` into the substrate options).  `rep` perturbs the seeded
  // adversaries so repetitions explore different schedules.
  std::unique_ptr<FaultInjector> make(std::uint64_t rep = 0) const;

  // Compact single-line form per the grammar above; parse() accepts exactly
  // the grammar and throws std::invalid_argument otherwise.
  std::string to_string() const;
  static FaultSpec parse(const std::string& text);

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;

  // Convenience constructors for the scenario generators.
  static FaultSpec none();
  static FaultSpec cascade(std::uint64_t units, int crashes, std::size_t prefix = 0,
                           bool completes = true);
  static FaultSpec on_unit(std::int64_t unit, int crashes, std::size_t prefix = 0);
  static FaultSpec random(double p, int crashes, std::uint64_t seed);
  static FaultSpec scheduled(std::vector<ScheduledFaults::Entry> entries);
  // Processes 0..procs-1 each crash on their nth_action-th non-idle action
  // under `plan` (a scheduled spec); none() when procs <= 0.
  static FaultSpec first_procs_crash(int procs, std::uint64_t nth_action, CrashPlan plan);
  // Throws std::invalid_argument for unregistered strategy names.  `jam` is
  // the message-fault budget (0 = crash-only adversary).
  static FaultSpec adaptive(const std::string& strategy, int crashes, std::uint64_t seed = 0,
                            int jam = 0);
  // Copy of this spec with the network component replaced -- the composition
  // hook: FaultSpec::cascade(...).with_net(NetSpec::lossy(0.05, 7)).
  FaultSpec with_net(NetSpec net_spec) const;
};

}  // namespace dowork::harness
