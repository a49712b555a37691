// Campaign runner: thousands of generated cases through the parallel
// harness, under the bound oracle and the verifier's invariants, reduced to
// a deterministic JSON report.
//
// The pipeline: generate_cases() draws the cases (per-index independent
// streams), every case is wrapped in a decision recorder (fuzz/trace.h) and
// fanned out through the ParallelScenarioRunner -- results land in input
// slots, so the report is byte-identical at any --jobs value -- and every
// violating case is then greedily minimized (fuzz/shrink.h), serially and
// in case order.  Trace files (the original failing trace and the shrunk
// reproducer) are written only when trace_dir is set; their *names* appear
// in the JSON either way, so the report bytes never depend on where (or
// whether) artifacts landed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/shrink.h"
#include "fuzz/trace.h"
#include "harness/scenario.h"

namespace dowork::fuzz {

struct CampaignOptions {
  std::uint64_t seed = 42;
  int cases = 1000;
  int jobs = 0;  // <= 0: hardware concurrency
  // Bound tightening (generator.h); 100 asserts the paper bounds verbatim.
  int tighten_pct = 100;
  // When non-empty: write <trace_dir>/caseNNNNN.trace (the original failing
  // execution) and caseNNNNN.shrunk.trace (the minimal reproducer) for
  // every violation.  Created if missing.
  std::string trace_dir;
  // Oracle-diff mode (dowork_fuzz --diff pool|socket): run every sync case
  // twice, both runs recorded -- once on a live leg, once serially on the
  // simulator (the oracle) -- and fail the case if the two executions
  // differ in any recorded decision or outcome field, on top of the usual
  // bound/invariant oracles (which judge the live leg's row).
  //   kPool:   the leg runs on the round pool, which promises byte-identity
  //            (sim/round_pool.h): even cases shard each round over the
  //            unsupervised pool (RunOptions::sim_threads), odd cases run
  //            on the supervised live pool (run_live_do_all, deterministic
  //            schedule) and report substrate "live".
  //   kSocket: the leg runs on the socket-process substrate, one worker OS
  //            process per protocol process with crashes as real SIGKILLs;
  //            a socket-leg abort (watchdog, worker death) surfaces as an
  //            outcome divergence.
  // The decision recorder wraps the injector of the simulator that commits
  // -- on the socket backend the coordinator's -- so both legs yield whole
  // traces.  A case whose leg fails an oracle that the serial leg also
  // fails shrinks normally (the bug is not the backend); a genuine
  // divergence is reported unshrunk (the shrinker replays serial legs
  // only) with the serial-leg trace attached.
  enum class Diff : std::uint8_t { kNone, kPool, kSocket };
  Diff diff = Diff::kNone;
  // Suppress the progress meter (stderr).
  bool quiet = false;
};

struct CampaignViolation {
  int index = 0;                   // case index within the campaign
  harness::ScenarioResult row;     // the original failing row
  Trace trace;                     // its decision trace
  ShrinkOutcome shrunk;            // the minimal reproducer
  std::string trace_file;          // "caseNNNNN.trace" (basename only)
  std::string shrunk_trace_file;   // "caseNNNNN.shrunk.trace"
};

struct CampaignResult {
  CampaignOptions options;
  std::vector<harness::ScenarioResult> rows;  // one per case, input order
  std::vector<CampaignViolation> violations;  // case order

  // Deterministic report: campaign metadata, ok/violation summary,
  // per-protocol bound-margin histograms (deciles of the percent-of-bound
  // columns, plus ">100" and "overflow" buckets), and every violation with
  // its shrunk reproducer.  No timestamps, no timing, no paths: --jobs 1
  // and --jobs 8 produce identical bytes.
  std::string to_json() const;

  // Human-facing summary (per-protocol table + violation reproducers).
  std::string summary_table() const;

  bool clean() const { return violations.empty(); }
};

CampaignResult run_campaign(const CampaignOptions& opts);

}  // namespace dowork::fuzz
