// The fuzzing subsystem end to end (src/fuzz/): generator determinism and
// validity, trace round-trip and record/replay bit-identity, campaign
// determinism across --jobs, the --diff pool|socket oracle modes, and the
// planted-violation path -- a tightened bound produces a violation whose
// shrunk reproducer still fails the same way and replays bit-identically.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "fuzz/generator.h"
#include "fuzz/shrink.h"
#include "fuzz/trace.h"
#include "harness/bounds.h"
#include "harness/scenario.h"
#include "substrate/socket_substrate.h"

namespace dowork::fuzz {
namespace {

using harness::FaultSpec;
using harness::Scenario;
using harness::ScenarioResult;

TEST(FuzzGeneratorTest, PerIndexDeterministicAndScheduleIndependent) {
  // Case k depends only on (seed, k): regenerating a subset, in any order,
  // yields identical scenarios.
  const GeneratorOptions opts{42, 100};
  const std::vector<Scenario> all = generate_cases(opts, 50);
  ASSERT_EQ(all.size(), 50u);
  for (int k : {49, 7, 23, 0}) {
    const Scenario again = generate_case(opts, k);
    EXPECT_EQ(again.id, all[static_cast<std::size_t>(k)].id);
    EXPECT_EQ(again.faults.to_string(), all[static_cast<std::size_t>(k)].faults.to_string());
    EXPECT_EQ(again.params, all[static_cast<std::size_t>(k)].params);
    EXPECT_EQ(again.seed, all[static_cast<std::size_t>(k)].seed);
  }
  // A different seed draws a different campaign.
  const Scenario other = generate_case({43, 100}, 0);
  const bool differs = other.faults.to_string() != all[0].faults.to_string() ||
                       other.seed != all[0].seed || other.cfg.n != all[0].cfg.n;
  EXPECT_TRUE(differs);
}

TEST(FuzzGeneratorTest, EveryCaseIsValidAndRoundTrips) {
  // The generator doubles as a FaultSpec grammar fuzzer: every drawn spec
  // must survive parse(to_string()), and every case must sit inside the
  // region where the oracle applies.
  for (const Scenario& s : generate_cases({42, 100}, 200)) {
    EXPECT_EQ(FaultSpec::parse(s.faults.to_string()).to_string(), s.faults.to_string())
        << s.id;
    EXPECT_GE(s.cfg.t, 2) << s.id;
    EXPECT_EQ(s.repetitions, 1) << s.id;
    if (s.protocol == "C" || s.protocol == "C_batch")
      EXPECT_LE(s.cfg.n + s.cfg.t, harness::kCRoundBudget) << s.id;
    if (s.protocol == "D") EXPECT_EQ(s.cfg.n % s.cfg.t, 0) << s.id;
    // Exactly one bound policy: crash-only cases assert, weather/jam cases
    // report margins only.
    const bool asserts = s.params.count("assert_bounds") != 0;
    const bool reports = s.params.count("report_bounds") != 0;
    EXPECT_NE(asserts, reports) << s.id;
    if (asserts) {
      EXPECT_TRUE(s.faults.net.is_noop()) << s.id;
    }
  }
}

TEST(FuzzGeneratorTest, TightenScalesAttachedBounds) {
  // Find a case that asserts a work bound and check the 40% attachment is
  // the scaled value of the 100% attachment.
  for (int k = 0; k < 50; ++k) {
    const Scenario full = generate_case({42, 100}, k);
    if (!full.params.count("assert_bounds")) continue;
    const Scenario tight = generate_case({42, 40}, k);
    for (const auto& [key, value] : full.params) {
      if (key.rfind("bound_", 0) != 0) continue;
      EXPECT_EQ(tight.params.at(key), std::max<std::int64_t>(1, value * 40 / 100))
          << full.id << " " << key;
    }
    return;
  }
  FAIL() << "no asserting case in the first 50";
}

TEST(FuzzTraceTest, SerializationRoundTrips) {
  Trace trace;
  trace.id = "case00007/B";
  trace.substrate = "sync";
  trace.protocol = "B";
  trace.n = 24;
  trace.t = 6;
  trace.seed = 12345;
  trace.faults = "cascade(units=3,crashes=2,prefix=all,completes=1)";
  trace.params = {{"assert_bounds", 1}, {"bound_work_3n", 72}};
  trace.wants_message_faults = true;
  trace.crashes = {{4, 2, true, 7}, {9, 0, false, 0}};
  trace.message_faults = {{3, true, 0}, {11, false, 2}};
  trace.outcome = {false, 80, 120, 200, 2, "~2^12", "work 80 exceeds bound_work_3n=72"};
  const Trace back = Trace::parse(trace.to_string());
  EXPECT_EQ(back, trace);

  // Malformed input is rejected, not silently absorbed.
  EXPECT_THROW(Trace::parse("not a trace"), std::invalid_argument);
  EXPECT_THROW(Trace::parse(""), std::invalid_argument);
}

TEST(FuzzTraceTest, RecordReplayIsBitIdentical) {
  // Record real runs across the protocol mix and replay each trace both
  // frozen (decision streams) and rebuilt (seeds); all three executions
  // must agree on every outcome field.
  int replayed = 0;
  for (const Scenario& s : generate_cases({42, 100}, 30)) {
    const RecordedRun rec = run_recorded(s);
    EXPECT_EQ(outcome_of(rec.row), rec.trace.outcome) << s.id;
    const Trace reparsed = Trace::parse(rec.trace.to_string());
    EXPECT_EQ(reparsed, rec.trace) << s.id;
    EXPECT_EQ(outcome_of(replay(reparsed, /*frozen=*/true)), rec.trace.outcome) << s.id;
    EXPECT_EQ(outcome_of(replay(reparsed, /*frozen=*/false)), rec.trace.outcome) << s.id;
    ++replayed;
  }
  EXPECT_EQ(replayed, 30);
}

TEST(FuzzCampaignTest, SmokeCampaignIsCleanAndJobsIndependent) {
  // The CI acceptance pin, at smoke scale: 100 seed-42 cases, zero
  // violations, and a report byte-identical at --jobs 1 and --jobs 8.
  CampaignOptions opts;
  opts.cases = 100;
  opts.seed = 42;
  opts.quiet = true;
  opts.jobs = 1;
  const CampaignResult serial = run_campaign(opts);
  EXPECT_TRUE(serial.clean());
  ASSERT_EQ(serial.rows.size(), 100u);
  std::set<std::string> protocols;
  for (const ScenarioResult& row : serial.rows) {
    EXPECT_TRUE(row.ok) << row.id << ": " << row.violation;
    protocols.insert(row.protocol);
  }
  // The campaign exercises every audited protocol plus the async substrate.
  for (const char* p : {"A", "A_async", "B", "C", "C_batch", "D"})
    EXPECT_TRUE(protocols.count(p)) << p;

  opts.jobs = 8;
  const CampaignResult parallel = run_campaign(opts);
  EXPECT_EQ(parallel.to_json(), serial.to_json());
}

TEST(FuzzCampaignTest, PoolDiffModeIsCleanAndJobsIndependent) {
  // --diff pool runs every sync case under the round pool and serially,
  // comparing whole decision traces; the pool's byte-identity contract
  // (sim/round_pool.h) says a healthy campaign stays clean, and the report
  // must stay byte-identical across --jobs like every other mode.  Odd
  // cases take the supervised pool, so some rows report substrate "live".
  CampaignOptions opts;
  opts.cases = 40;
  opts.seed = 42;
  opts.quiet = true;
  opts.jobs = 1;
  opts.diff = CampaignOptions::Diff::kPool;
  const CampaignResult serial = run_campaign(opts);
  EXPECT_TRUE(serial.clean());
  ASSERT_EQ(serial.rows.size(), 40u);
  int supervised = 0;
  for (const ScenarioResult& row : serial.rows) {
    EXPECT_TRUE(row.ok) << row.id << ": " << row.violation;
    if (row.substrate == "live") ++supervised;
  }
  EXPECT_GT(supervised, 0);
  EXPECT_NE(serial.to_json().find("\"diff\": \"pool\""), std::string::npos);

  opts.jobs = 8;
  const CampaignResult parallel = run_campaign(opts);
  EXPECT_EQ(parallel.to_json(), serial.to_json());
}

TEST(FuzzCampaignTest, SocketDiffModeIsClean) {
  // --diff socket runs every sync case on worker OS processes and serially
  // on the simulator.  The recorder sits in the coordinator's injector, so
  // the socket leg yields a whole trace too, and the oracle contract
  // (src/substrate/differential.h) says it matches the serial one.
  CampaignOptions opts;
  opts.cases = 12;
  opts.seed = 42;
  opts.quiet = true;
  opts.jobs = 2;
  opts.diff = CampaignOptions::Diff::kSocket;
  const CampaignResult result = run_campaign(opts);
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.rows.size(), 12u);
  int sync = 0;
  for (const ScenarioResult& row : result.rows) {
    EXPECT_TRUE(row.ok) << row.id << ": " << row.violation;
    if (row.substrate == "sync") ++sync;
  }
  EXPECT_GT(sync, 0);
  EXPECT_NE(result.to_json().find("\"diff\": \"socket\""), std::string::npos);
}

// A tightened bound fails both legs the same way: that is not a backend
// finding, so the case shrinks through the normal pipeline (with the
// serial oracle leg's trace) instead of being reported as a divergence.
void expect_serially_reproduced_violations_shrink(CampaignOptions::Diff diff) {
  CampaignOptions opts;
  opts.cases = 24;
  opts.seed = 42;
  opts.tighten_pct = 40;
  opts.quiet = true;
  opts.jobs = 2;
  opts.diff = diff;
  const CampaignResult result = run_campaign(opts);
  ASSERT_FALSE(result.clean()) << "40% bounds should plant violations";
  bool checked_one = false;
  for (const CampaignViolation& v : result.violations) {
    if (v.row.substrate != "sync") continue;
    EXPECT_TRUE(is_bound_violation(v.row.violation)) << v.row.violation;
    EXPECT_EQ(v.row.violation.find("diff divergence"), std::string::npos) << v.row.violation;
    EXPECT_TRUE(is_bound_violation(v.shrunk.row.violation)) << v.shrunk.row.violation;
    const Trace reparsed = Trace::parse(v.trace.to_string());
    EXPECT_EQ(reparsed.substrate, "sync");
    EXPECT_EQ(outcome_of(replay(reparsed, /*frozen=*/true)), reparsed.outcome);
    checked_one = true;
    break;
  }
  EXPECT_TRUE(checked_one) << "no sync-substrate violation in the campaign";
}

TEST(FuzzCampaignTest, PoolDiffModeShrinksSeriallyReproducedViolations) {
  expect_serially_reproduced_violations_shrink(CampaignOptions::Diff::kPool);
}

TEST(FuzzCampaignTest, SocketDiffModeShrinksSeriallyReproducedViolations) {
  expect_serially_reproduced_violations_shrink(CampaignOptions::Diff::kSocket);
}

TEST(FuzzShrinkTest, PlantedViolationShrinksAndReplays) {
  // Tighten every bound to 40% of the paper's value: violations are now
  // planted by construction.  The shrinker must produce a no-larger
  // reproducer that still fails in the bound category, and its trace must
  // replay bit-identically -- the full CI-artifact workflow, in-process.
  CampaignOptions opts;
  opts.cases = 40;
  opts.seed = 42;
  opts.tighten_pct = 40;
  opts.quiet = true;
  opts.jobs = 2;
  const CampaignResult result = run_campaign(opts);
  ASSERT_FALSE(result.clean()) << "40% bounds should plant violations";

  const CampaignViolation& v = result.violations.front();
  EXPECT_TRUE(is_bound_violation(v.row.violation)) << v.row.violation;
  EXPECT_TRUE(is_bound_violation(v.shrunk.row.violation)) << v.shrunk.row.violation;
  EXPECT_LE(v.shrunk.minimal.cfg.t, v.trace.t);
  EXPECT_LE(v.shrunk.minimal.cfg.n, v.trace.n);

  // The shrunk trace replays to the exact recorded outcome, through the
  // text format (what --trace-dir writes and --replay reads).
  const Trace reparsed = Trace::parse(v.shrunk.trace.to_string());
  EXPECT_EQ(reparsed.outcome, v.shrunk.trace.outcome);
  EXPECT_FALSE(reparsed.outcome.ok);
  EXPECT_EQ(outcome_of(replay(reparsed, /*frozen=*/true)), reparsed.outcome);

  // The report names both trace artifacts whether or not they were written.
  EXPECT_FALSE(v.trace_file.empty());
  EXPECT_FALSE(v.shrunk_trace_file.empty());
}

TEST(FuzzShrinkTest, ShrinkRejectsAPassingCase) {
  for (const Scenario& s : generate_cases({42, 100}, 5)) {
    if (!s.params.count("assert_bounds")) continue;
    EXPECT_THROW(shrink(s), std::invalid_argument);
    return;
  }
  FAIL() << "no asserting case in the first 5";
}

}  // namespace
}  // namespace dowork::fuzz

// Worker re-entry shim: the --diff socket campaigns re-execute this binary
// as their worker processes, which must run the worker loop, not the suite.
int main(int argc, char** argv) {
  if (int code = dowork::substrate::maybe_socket_worker(argc, argv); code >= 0) return code;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
