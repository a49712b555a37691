// The fuzzing subsystem end to end (src/fuzz/): generator determinism and
// validity, trace round-trip and record/replay bit-identity, campaign
// determinism across --jobs, the --diff pool|socket oracle modes, and the
// planted-violation path -- a tightened bound produces a violation whose
// shrunk reproducer still fails the same way and replays bit-identically.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
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
    if (s.protocol == "C" || s.protocol == "C_batch") {
      EXPECT_LE(s.cfg.n + s.cfg.t, harness::kCRoundBudget) << s.id;
    }
    if (s.protocol == "D") {
      EXPECT_EQ(s.cfg.n % s.cfg.t, 0) << s.id;
    }
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
  trace.crashes = {{2, 4, {true, 7}}, {0, 9, {false, SIZE_MAX}}};
  trace.message_faults = {{3, 1, {true, 0}}, {3, 11, {false, 2}}};
  trace.outcome = {false, 80, 120, 200, 2, "~2^12", "work 80 exceeds bound_work_3n=72"};
  const std::string text = trace.to_string();
  EXPECT_EQ(text.rfind("dowork-trace v2\n", 0), 0u) << text;
  // The crashes are one line in FaultSpec's own scheduled(...) grammar.
  EXPECT_NE(text.find("\ncrashes scheduled(2@4:1:7;0@9:0:all)\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nmsgfault 3 11 0 2\n"), std::string::npos) << text;
  EXPECT_EQ(Trace::parse(text), trace);

  // No decisions: an empty schedule, still one line.
  Trace quiet = trace;
  quiet.crashes.clear();
  quiet.message_faults.clear();
  EXPECT_NE(quiet.to_string().find("\ncrashes scheduled()\n"), std::string::npos);
  EXPECT_EQ(Trace::parse(quiet.to_string()), quiet);

  // A v1 trace (whole-run call ordinals) is refused with a pointer to
  // re-record, not misread.
  std::string v1 = text;
  v1.replace(0, std::string("dowork-trace v2").size(), "dowork-trace v1");
  try {
    Trace::parse(v1);
    ADD_FAILURE() << "v1 header accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("re-record"), std::string::npos) << e.what();
  }

  // Malformed input is rejected, not silently absorbed: a crashes line must
  // be a bare schedule.
  std::string cascade = text;
  cascade.replace(cascade.find("scheduled(2@4:1:7;0@9:0:all)"),
                  std::string("scheduled(2@4:1:7;0@9:0:all)").size(),
                  "cascade(units=3,crashes=2,prefix=all,completes=1)");
  EXPECT_THROW(Trace::parse(cascade), std::invalid_argument);
  // A number past its field's range is rejected with FaultSpec's message.
  std::string huge = text;
  huge.replace(huge.find("2@4:1:7"), std::string("2@4:1:7").size(), "99999999999999999999@4:1:7");
  try {
    Trace::parse(huge);
    ADD_FAILURE() << "out-of-range proc accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("FaultSpec proc"), std::string::npos) << e.what();
  }
  EXPECT_THROW(Trace::parse("not a trace"), std::invalid_argument);
  EXPECT_THROW(Trace::parse(""), std::invalid_argument);
}

// Records `s`, round-trips the trace through its text form, and replays it
// frozen and rerun; every execution must agree on every outcome field.
Trace expect_replays_bit_identically(const Scenario& s) {
  const RecordedRun rec = run_recorded(s);
  EXPECT_EQ(outcome_of(rec.row), rec.trace.outcome) << s.id;
  const Trace reparsed = Trace::parse(rec.trace.to_string());
  EXPECT_EQ(reparsed, rec.trace) << s.id;
  EXPECT_EQ(outcome_of(replay(reparsed, /*frozen=*/true)), rec.trace.outcome) << s.id;
  EXPECT_EQ(outcome_of(replay(reparsed, /*frozen=*/false)), rec.trace.outcome) << s.id;
  return rec.trace;
}

// A sync run of `protocol` at (n, t) under `faults`.
Scenario sync_case(const std::string& protocol, DoAllConfig cfg, const FaultSpec& faults) {
  Scenario s;
  s.id = protocol + "/" + faults.to_string();
  s.protocol = protocol;
  s.cfg = cfg;
  s.faults = faults;
  s.seed = 7;
  return s;
}

TEST(FuzzTraceTest, RecordReplayIsBitIdentical) {
  // Record real runs across the protocol mix and replay each trace both
  // frozen (a ScheduledFaults over the decisions) and rebuilt (seeds).
  int replayed = 0;
  for (const Scenario& s : generate_cases({42, 100}, 30)) {
    expect_replays_bit_identically(s);
    ++replayed;
  }
  EXPECT_EQ(replayed, 30);

  // A jammer that spends its budget: the frozen schedule's message entries
  // route the replay through the network path the recording took.
  const FaultSpec jammer = FaultSpec::adaptive("jammer", 0, 0, /*jam=*/8);
  const Trace jammed = expect_replays_bit_identically(sync_case("A", {48, 6}, jammer));
  EXPECT_FALSE(jammed.message_faults.empty());
  // A jammer with a budget it never spends (the checkpoint baseline
  // announces no progress, so the jammer never targets it): the recording
  // took the network path, the frozen replay (no message entries) the
  // direct ledger path, and the two commit the same records.
  const Trace idle_jam =
      expect_replays_bit_identically(sync_case("baseline_checkpoint", {48, 6}, jammer));
  EXPECT_TRUE(idle_jam.message_faults.empty());
  EXPECT_GT(idle_jam.outcome.messages, 0u);
  // An adaptive crash strategy.
  const Trace greedy =
      expect_replays_bit_identically(sync_case("B", {64, 8}, FaultSpec::adaptive("greedy", 3)));
  EXPECT_FALSE(greedy.crashes.empty());
}

// Drives `inj` through `steps` in one round: (process, non-idle) pairs;
// returns the indices of the steps it crashed.
std::vector<int> crashed_steps(FaultInjector& inj, const std::vector<std::pair<int, bool>>& steps) {
  Action work;
  work.work = 1;
  const Action idle = Action::none();
  std::vector<int> out;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto [proc, busy] = steps[i];
    if (inj.inspect(proc, Round{0u}, busy ? work : idle, SimSnapshot{3, 3, 0}))
      out.push_back(static_cast<int>(i));
  }
  return out;
}

TEST(FuzzTraceTest, IdleInspectionsDoNotMoveARecordedCrash) {
  // Record process 1 crashing at its second step, then replay the frozen
  // trace with idle inspections inserted before the crash: a crash is keyed
  // by (process, k-th non-idle action), so it still lands on process 1's
  // second step and nowhere else.
  Trace trace;
  trace.faults = "none";
  RecordingFaults rec(std::make_unique<ScheduledFaults>(
                          std::vector<ScheduledFaults::Entry>{{1, 2, CrashPlan{true, 0}}}),
                      &trace);
  EXPECT_EQ(crashed_steps(rec, {{0, true}, {1, true}, {0, true}, {1, true}}),
            std::vector<int>{3});

  std::unique_ptr<FaultInjector> frozen = trace.to_scenario(/*frozen=*/true).injector_override(0);
  ASSERT_TRUE(frozen);
  EXPECT_EQ(crashed_steps(*frozen, {{1, false},
                                    {0, true},
                                    {0, false},
                                    {1, true},
                                    {1, false},
                                    {2, false},
                                    {0, true},
                                    {1, true}}),
            std::vector<int>{7});
}

TEST(FuzzTraceTest, RecorderRejectsACrashPlanOnAnIdleAction) {
  // An injector that crashes whatever steps breaks the FaultInjector
  // contract on idle actions; the recorder refuses to key such a plan.
  struct CrashEverything final : FaultInjector {
    std::optional<CrashPlan> inspect(int, const Round&, const Action&,
                                     const SimSnapshot&) override {
      return CrashPlan{};
    }
  };
  Trace trace;
  RecordingFaults rec(std::make_unique<CrashEverything>(), &trace);
  EXPECT_EQ(crashed_steps(rec, {{0, true}}), std::vector<int>{0});
  EXPECT_THROW(crashed_steps(rec, {{1, false}}), std::logic_error);
  EXPECT_EQ(trace.crashes, (std::vector<ScheduledFaults::Entry>{{0, 1, CrashPlan{}}}));
}

TEST(FuzzTraceTest, GoldenTracesReRecordByteIdentically) {
  // Recording each committed trace's scenario again writes the file byte for
  // byte, so tests/golden/replay_v2*.trace pin the v2 text and the
  // recorder's keys; the fuzz_replay_v2* CTests replay them through the CLI.
  // replay_v2_async carries asynchronous A's crash decisions.
  for (const char* name : {"replay_v2", "replay_v2_jam", "replay_v2_async"}) {
    const std::string path = std::string(DOWORK_SOURCE_DIR) + "/tests/golden/" + name + ".trace";
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::ostringstream text;
    text << in.rdbuf();
    const Trace golden = Trace::parse(text.str());
    EXPECT_EQ(run_recorded(golden.to_scenario(/*frozen=*/false)).trace.to_string(), text.str())
        << name;
    for (bool frozen : {true, false})
      EXPECT_EQ(outcome_of(replay(golden, frozen)), golden.outcome)
          << name << " frozen=" << frozen;
  }
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

TEST(FuzzShrinkTest, EmptiedCrashComponentShrinksToNone) {
  // Case 52 of {seed 42, tighten 40} violates a bound that holds without
  // any crash.  Its kill list shrinks to no entries; the crash component
  // that is left must still count as size, or `scheduled()` and `none`
  // score alike and the reproducer keeps the empty component.
  const Scenario failing = generate_case({42, 40}, 52);
  ShrinkOptions opts;
  opts.tighten_pct = 40;
  const ShrinkOutcome out = shrink(failing, opts);
  EXPECT_EQ(out.minimal.faults.kind(), FaultSpec::Kind::kNone)
      << out.minimal.faults.to_string();
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
