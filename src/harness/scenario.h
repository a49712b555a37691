// Declarative scenarios: one simulated execution, described as a value.
//
// The experiment registry (harness/experiments.h) expands each named
// experiment into a vector of Scenarios; the ParallelScenarioRunner fans
// them out across threads; run_scenario() executes one and reduces it to a
// flat ScenarioResult row.  Because a Scenario is pure data (protocol name,
// config, fault spec, seed), the same vector produces byte-identical
// results at any parallelism.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/runner.h"
#include "core/work.h"
#include "harness/fault_spec.h"

namespace dowork::harness {

// Which simulation substrate executes the scenario.  kSync covers every
// registry protocol (baselines, A, B, C, C_batch, naive_C, D, D_coord),
// kByzantine and kDynamic run their model variants through run_do_all too,
// and kAsync and kSharedMem have their own simulators (crashed through
// Scenario::faults too).  The last two run registry protocols on the live
// backend Scenario::backend names (src/substrate/): kLive is a kSync row
// that also reports the kill-point census (params["free_sched"] = 1 selects
// the free commit schedule), and kDifferential runs the case on the
// simulator AND the live backend under the deterministic schedule and fails
// the row on any metric divergence (the simulator as oracle).
enum class Substrate : std::uint8_t {
  kSync, kByzantine, kAsync, kSharedMem, kDynamic, kLive, kDifferential
};

const char* to_string(Substrate s);

struct Scenario {
  // Unique within its experiment and stable across runs/builds: it names
  // the row in logs, JSON, and `dowork_bench --filter` matches against it.
  // Generators conventionally use "<group>/<faults.to_string()>".
  std::string id;
  // Aggregation key: all rows sharing a group reduce into one table line
  // (the paper's worst-over-adversaries semantics).  Empty = use `id`.
  std::string group;
  // Which simulation substrate executes the scenario (enum above).
  Substrate substrate = Substrate::kSync;
  // For kSync: a protocol registry name (src/core/registry.h) such as "A",
  // "C_batch", "baseline_all".  For kByzantine: the *inner* work protocol
  // the agreement layer runs over.  Other substrates have one hard-wired
  // algorithm and ignore it beyond labeling.
  std::string protocol;
  // Instance shape.  n = units of work; t = processes.  For kByzantine,
  // n = processes that must agree and t = tolerated faults (the paper's
  // Section 5 naming).  kDynamic derives its workload from params instead.
  DoAllConfig cfg;
  // The declarative adversary (see fault_spec.h for the grammar), network
  // weather included, on every substrate.  kAsync refuses adaptive specs and
  // message faults, and kSharedMem takes only none or scheduled(...) and no
  // weather: a refused spec ends in a violation row naming the substrate.
  FaultSpec faults;
  // Base seed for anything stochastic: repetition r uses seed + r (random
  // adversaries, async delivery delays).  Purely deterministic scenarios
  // ignore it.  Identical seeds => identical rows, any thread count.
  std::uint64_t seed = 0;
  // Number of repetitions; each becomes its own ScenarioResult row with
  // rep = 0..repetitions-1.  Only useful when seed enters the run.
  int repetitions = 1;
  // Substrate- and experiment-specific integer knobs, never crashes (e.g.
  // "max_delay", "fd_delay" for kAsync; "batches", "per_batch", "gap" for
  // kDynamic; "protocol_param" tunes a registry protocol's constructor;
  // "value" is the Byzantine general's value).  Keys prefixed "bound_" are
  // paper-bound columns copied verbatim into the result rows for table/JSON
  // output.  With "assert_bounds" = 1 (the adversary_search family),
  // bound_work* / bound_msgs* / bound_rounds* are additionally *checked*
  // against the measured row (exceeding one is a violation) and reported as
  // bound_margin_* columns -- percent of the bound consumed, rounded up.
  // With "report_bounds" = 1 (the network families) the same bound_margin_*
  // columns appear but never flip ok: network faults sit outside the
  // crash-only theorems, so a >100% margin measures degradation there.
  std::map<std::string, std::int64_t> params;
  // Fuzz hook: when set, replaces faults.make(rep) as the crash-injector
  // factory for the substrates that consult one (all but kSharedMem, whose
  // operations are not Actions).
  // The spec still supplies the network component and the row's faults
  // string; src/fuzz/ uses this to wrap the spec's injector in a decision
  // recorder or to replace it with a frozen-trace replayer.  Never set by
  // the experiment registry, so every registered scenario is pure data.
  std::function<std::unique_ptr<FaultInjector>(std::uint64_t rep)> injector_override;
  // Which executor runs the registry protocol (RunOptions::backend): the
  // simulator by default.  kLive and kDifferential registry rows name
  // their live backend (kPool or kSocket; params["transport_tcp"] = 1
  // selects TCP over the default UDS).  dowork_bench --backend socket and
  // dowork_fuzz --diff socket move kSync rows onto the socket backend; row
  // data is byte-identical on every backend (the oracle contract, checked
  // by the CI sim-vs-socket JSON diff) and only the timing section's
  // units_per_sec betrays it.
  Backend backend = Backend::kSim;
  // CLI hook (dowork_bench --sim-threads N): round-parallel evaluation for
  // this kSync, kByzantine or kDynamic scenario (RunOptions::sim_threads).
  // Byte-identical row data at any value -- the round pool's ordered-commit
  // contract, checked by the CI --sim-threads determinism diff -- so, like
  // --jobs, it is purely a wall-clock knob.  dowork_fuzz --diff pool sets
  // it on its live leg.  Never set by the experiment registry.
  int sim_threads = 1;

  std::int64_t param_or(const std::string& key, std::int64_t fallback) const {
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
};

// Flat result row for one repetition of one scenario: everything the JSON
// report and the paper-style tables need, with BigUint round counts already
// string-formatted (decimal when they fit, "~2^k" otherwise).
struct ScenarioResult {
  // Identity: copied from the scenario (and the experiment that owns it)
  // so each row is self-describing in the JSON report.
  std::string experiment;
  std::string id;
  std::string group;
  std::string protocol;
  std::string substrate;   // to_string(Substrate)
  std::string faults;      // FaultSpec::to_string()
  std::int64_t n = 0;
  int t = 0;
  std::uint64_t seed = 0;  // the scenario's base seed (not seed + rep)
  int rep = 0;             // which repetition this row is, 0-based

  // Outcome: ok means the run completed all n units, every process retired,
  // and the substrate's own checks passed (agreement/validity, no lost
  // announced work, ...).  Otherwise `violation` holds the verifier's
  // message or the exception text -- run_scenario() never throws.
  bool ok = false;
  std::string violation;  // empty when ok

  // The paper's measures (see PAPER.md): units performed counting
  // multiplicity; point-to-point sends (shared-memory runs count reads +
  // writes here); work + messages; processes crashed by the adversary.
  std::uint64_t work = 0;
  std::uint64_t messages = 0;
  std::uint64_t effort = 0;
  std::uint64_t crashes = 0;
  Round last_round;    // last retire round / end time, exact
  std::string rounds;  // the same, formatted via format_round()
  // Wall-clock time of this repetition, milliseconds.  Machine-dependent by
  // nature: it appears in the human-facing tables and in the JSON report's
  // optional "timing" section only (to_json must be asked for it), never in
  // the deterministic row data that CI byte-compares across --jobs values.
  double wall_ms = 0;
  // Live-backend throughput (work units per wall-clock second over the
  // whole run, RunStats::units_per_sec), copied when the repetition ran on
  // a live backend; 0 on simulator rows.  Machine-dependent like wall_ms:
  // it rides in the JSON report's timing section only, never in the
  // deterministic row data.
  double units_per_sec = 0;
  // Ordered extra columns: paper bounds, per-kind message counts, substrate
  // specifics (APS, reads/writes, lost units, ...).
  std::vector<std::pair<std::string, std::string>> extra;
};

// Executes one scenario (all repetitions, rep r uses seed + r) and returns
// one row per repetition.  Never throws: failures come back as rows with
// ok = false and the exception text in `violation`.
std::vector<ScenarioResult> run_scenario(const std::string& experiment, const Scenario& s);

// Compact round-count form: decimal when the value fits u64, "~2^k"
// otherwise (Protocol C's deadlines are exponential in n + t).
std::string format_round(const Round& r);

}  // namespace dowork::harness
