// Tests for the scenario harness: fault-spec round-trips, the parallel
// runner's determinism and ordering guarantees, the experiment registry,
// and the scenario hooks added to core/ and sim/.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "core/runner.h"
#include "harness/experiments.h"
#include "harness/parallel_runner.h"
#include "harness/report.h"
#include "harness/scenario.h"

namespace dowork::harness {
namespace {

// --- FaultSpec --------------------------------------------------------------

TEST(FaultSpec, RoundTripsEveryKind) {
  std::vector<FaultSpec> specs = {
      FaultSpec::none(),
      FaultSpec::cascade(7, 15, 2, false),
      FaultSpec::cascade(1, 3, SIZE_MAX, true),
      FaultSpec::on_unit(63, 31, 1),
      FaultSpec::random(0.05, 15, 42),
      FaultSpec::random(1.0 / 3.0, 7, 0),  // needs full double precision
      FaultSpec::scheduled({{0, 1, CrashPlan{false, 4}}, {3, 9, CrashPlan{true, SIZE_MAX}}}),
      FaultSpec::adaptive("greedy", 15, 42),
      FaultSpec::adaptive("restart", 7),
      FaultSpec::adaptive("jammer", 0, 1, /*jam=*/8),
      // Composed v2 forms: every crash kind with a network component, and
      // the net-only spec (tests/fault_spec_fuzz_test.cpp hammers the full
      // grammar; this table pins one of each shape).
      FaultSpec::none().with_net(NetSpec::latency(1, 20, 7)),
      FaultSpec::cascade(7, 15, 2, false).with_net(NetSpec::lossy(0.05, 3)),
      FaultSpec::on_unit(63, 31, 1).with_net(NetSpec::partition({{8, 40, 4}}, 0)),
      FaultSpec::random(0.05, 15, 42).with_net(NetSpec::latency(2, 5, 1)),
      FaultSpec::scheduled({{0, 1, CrashPlan{false, 4}}})
          .with_net(NetSpec::partition({{4, 24, 8}, {48, 64, 2}}, 9)),
      FaultSpec::adaptive("jammer", 0, 1, /*jam=*/16).with_net(NetSpec::lossy(0.02, 5)),
  };
  for (const FaultSpec& spec : specs) {
    const std::string text = spec.to_string();
    EXPECT_EQ(FaultSpec::parse(text), spec) << text;
    // A second round-trip must be a fixed point.
    EXPECT_EQ(FaultSpec::parse(text).to_string(), text);
  }
}

TEST(FaultSpec, ParseRejectsMalformedInput) {
  EXPECT_THROW(FaultSpec::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("cascade(units=1)"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("martian(x=1)"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("scheduled(nonsense)"), std::invalid_argument);
}

TEST(FaultSpec, AdaptiveRoundTripsExactly) {
  // The grammar's adaptive form, pinned literally: parse(to_string()) is the
  // identity and to_string(parse()) a fixed point on the exact spelling.
  const FaultSpec spec = FaultSpec::adaptive("chain", 15, 3);
  EXPECT_EQ(spec.to_string(), "adaptive:chain(crashes=15,seed=3)");
  EXPECT_EQ(FaultSpec::parse("adaptive:chain(crashes=15,seed=3)"), spec);
  EXPECT_EQ(FaultSpec::parse(spec.to_string()).to_string(), spec.to_string());
}

TEST(FaultSpec, AdaptiveRejectsUnknownStrategies) {
  // Unknown strategies are rejected when the spec is *built*, not when the
  // injector is -- both at parse time and in the convenience constructor.
  EXPECT_THROW(FaultSpec::parse("adaptive:zeus(crashes=1,seed=0)"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::parse("adaptive:(crashes=1,seed=0)"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::adaptive("zeus", 1), std::invalid_argument);
}

TEST(FaultSpec, MakeBuildsTheRightInjector) {
  // The cascade spec must reproduce WorkCascadeFaults behavior: run Protocol
  // A under the spec-built injector and under a hand-built one; identical
  // deterministic adversaries give identical metrics.
  const DoAllConfig cfg{64, 8};
  RunResult via_spec = run_do_all("A", cfg, FaultSpec::cascade(2, 7, 1).make());
  RunResult direct = run_do_all("A", cfg, std::make_unique<WorkCascadeFaults>(2, 7, 1));
  ASSERT_TRUE(via_spec.ok());
  EXPECT_EQ(via_spec.metrics.work_total, direct.metrics.work_total);
  EXPECT_EQ(via_spec.metrics.messages_total, direct.metrics.messages_total);
  EXPECT_EQ(via_spec.metrics.crashes, direct.metrics.crashes);
}

TEST(FaultSpec, RandomRepPerturbsTheSeed) {
  // Same spec, different rep => different schedule (with overwhelming
  // probability for this shape); same rep => identical schedule.
  const DoAllConfig cfg{256, 16};
  const FaultSpec spec = FaultSpec::random(0.2, 15, 7);
  RunResult r0a = run_do_all("A", cfg, spec.make(0));
  RunResult r0b = run_do_all("A", cfg, spec.make(0));
  RunResult r1 = run_do_all("A", cfg, spec.make(1));
  EXPECT_EQ(r0a.metrics.work_total, r0b.metrics.work_total);
  EXPECT_EQ(r0a.metrics.messages_total, r0b.metrics.messages_total);
  EXPECT_TRUE(r0a.metrics.work_total != r1.metrics.work_total ||
              r0a.metrics.messages_total != r1.metrics.messages_total ||
              r0a.metrics.last_retire_round != r1.metrics.last_retire_round);
}

// --- scenario hooks in core/ ------------------------------------------------

TEST(ScenarioHooks, ProtocolParamSelectsCheckpointInterval) {
  const DoAllConfig cfg{128, 8};
  RunOptions k1, k32;
  k1.protocol_param = 1;
  k32.protocol_param = 32;
  RunResult frequent = run_do_all("baseline_checkpoint", cfg, std::make_unique<NoFaults>(), k1);
  RunResult rare = run_do_all("baseline_checkpoint", cfg, std::make_unique<NoFaults>(), k32);
  ASSERT_TRUE(frequent.ok());
  ASSERT_TRUE(rare.ok());
  // Checkpointing every unit sends ~t messages per unit; every 32 units
  // divides that by 32.
  EXPECT_GT(frequent.metrics.messages_total, 4 * rare.metrics.messages_total);
}

TEST(ScenarioHooks, ParamOnParamlessProtocolThrows) {
  RunOptions opts;
  opts.protocol_param = 3;
  EXPECT_THROW(run_do_all("A", DoAllConfig{16, 4}, std::make_unique<NoFaults>(), opts),
               std::invalid_argument);
}

// --- bound assertion (assert_bounds / bound_margin_*) -----------------------

TEST(ScenarioBounds, AssertBoundsFlagsBreachesAndReportsMargins) {
  // A deliberately impossible work bound must flip the row to a violation
  // naming the bound, while the satisfied message bound still reports its
  // margin; without assert_bounds the same params are copy-through columns.
  Scenario s;
  s.id = s.group = "tight";
  s.protocol = "A";
  s.cfg = DoAllConfig{32, 4};
  s.faults = FaultSpec::none();
  s.params["assert_bounds"] = 1;
  s.params["bound_work_3n"] = 8;  // failure-free A performs all 32 units
  s.params["bound_msgs"] = 1000000;
  const std::vector<ScenarioResult> rows = run_scenario("x", s);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].ok);
  EXPECT_NE(rows[0].violation.find("exceeds bound_work_3n=8"), std::string::npos)
      << rows[0].violation;
  auto margin = [&](const std::string& key) -> std::string {
    for (const auto& [k, v] : rows[0].extra)
      if (k == key) return v;
    return "<missing>";
  };
  EXPECT_EQ(margin("bound_margin_work"), "400");  // 32 of 8, ceil percent
  EXPECT_EQ(margin("bound_margin_msgs"), "1");    // comfortably under
}

TEST(ScenarioBounds, WithoutAssertBoundsParamsAreCopyThroughOnly) {
  Scenario s;
  s.id = s.group = "loose";
  s.protocol = "A";
  s.cfg = DoAllConfig{32, 4};
  s.faults = FaultSpec::none();
  s.params["bound_work_3n"] = 8;  // violated, but nothing checks it
  const std::vector<ScenarioResult> rows = run_scenario("x", s);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].ok) << rows[0].violation;
  for (const auto& [k, v] : rows[0].extra)
    EXPECT_EQ(k.rfind("bound_margin_", 0), std::string::npos) << k;
}

// --- MetricsAggregate -------------------------------------------------------

TEST(MetricsAggregate, OrderIndependentReduction) {
  RunMetrics a, b, c;
  a.work_total = 10;
  a.messages_total = 5;
  a.last_retire_round = Round{100};
  a.all_retired = true;
  b.work_total = 30;
  b.messages_total = 1;
  b.last_retire_round = Round{50};
  b.all_retired = true;
  c.work_total = 20;
  c.messages_total = 9;
  c.last_retire_round = BigUint::pow2(90);
  c.all_retired = true;

  MetricsAggregate fwd, rev;
  for (const RunMetrics* m : {&a, &b, &c}) fwd.absorb(*m);
  for (const RunMetrics* m : {&c, &b, &a}) rev.absorb(*m);
  EXPECT_EQ(fwd.max_work, 30u);
  EXPECT_EQ(fwd.sum_work, 60u);
  EXPECT_EQ(fwd.max_messages, 9u);
  EXPECT_EQ(fwd.max_effort, rev.max_effort);
  EXPECT_EQ(fwd.max_rounds, rev.max_rounds);
  EXPECT_EQ(fwd.max_rounds, BigUint::pow2(90));
  EXPECT_EQ(fwd.sum_messages, rev.sum_messages);
}

// --- experiment registry ----------------------------------------------------

TEST(Experiments, RegistryIsWellFormed) {
  std::set<std::string> names;
  for (const ExperimentInfo& e : all_experiments()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate experiment " << e.name;
    EXPECT_FALSE(e.title.empty());
    EXPECT_FALSE(e.claim.empty());
    const std::vector<Scenario> scenarios = e.scenarios();
    EXPECT_FALSE(scenarios.empty()) << e.name;
    std::set<std::string> ids;
    for (const Scenario& s : scenarios) {
      EXPECT_TRUE(ids.insert(s.id).second) << e.name << " duplicate scenario id " << s.id;
      EXPECT_GE(s.repetitions, 1) << s.id;
    }
  }
  EXPECT_NE(find_experiment("smoke"), nullptr);
  EXPECT_EQ(find_experiment("no_such_experiment"), nullptr);
}

// --- parallel runner --------------------------------------------------------

TEST(ParallelScenarioRunner, PreservesScenarioOrderAtAnyParallelism) {
  const ExperimentInfo* smoke = find_experiment("smoke");
  ASSERT_NE(smoke, nullptr);
  const std::vector<Scenario> scenarios = smoke->scenarios();
  const std::vector<ScenarioResult> rows = ParallelScenarioRunner(4).run("smoke", scenarios);
  ASSERT_EQ(rows.size(), scenarios.size());  // smoke has one rep per scenario
  for (std::size_t i = 0; i < scenarios.size(); ++i) EXPECT_EQ(rows[i].id, scenarios[i].id);
}

TEST(ParallelScenarioRunner, DeterministicJsonAcrossJobCounts) {
  // The acceptance bar for the whole harness: same seeds => byte-identical
  // aggregated output whether scenarios ran on 1 thread or 8.
  const ExperimentInfo* smoke = find_experiment("smoke");
  ASSERT_NE(smoke, nullptr);
  const std::vector<Scenario> scenarios = smoke->scenarios();
  const std::string json1 = to_json("smoke", ParallelScenarioRunner(1).run("smoke", scenarios));
  const std::string json8 = to_json("smoke", ParallelScenarioRunner(8).run("smoke", scenarios));
  EXPECT_EQ(json1, json8);
}

TEST(ParallelScenarioRunner, AdversarySearchIsByteIdenticalAcrossJobCounts) {
  // Adaptive strategies observe only committed single-run state and draw
  // randomness only from scenario seeds, so the tournament keeps the same
  // determinism contract as every scripted family: the full JSON document
  // is byte-identical at any parallelism.
  const ExperimentInfo* e = find_experiment("adversary_search");
  ASSERT_NE(e, nullptr);
  const std::vector<Scenario> scenarios = e->scenarios();
  const std::string json1 =
      to_json("adversary_search", ParallelScenarioRunner(1).run("adversary_search", scenarios));
  const std::string json8 =
      to_json("adversary_search", ParallelScenarioRunner(8).run("adversary_search", scenarios));
  EXPECT_EQ(json1, json8);
}

TEST(ParallelScenarioRunner, BadScenarioBecomesFailedRowNotCrash) {
  Scenario bad;
  bad.id = bad.group = "bad";
  bad.protocol = "no_such_protocol";
  bad.cfg = DoAllConfig{8, 2};
  Scenario good;
  good.id = good.group = "good";
  good.protocol = "A";
  good.cfg = DoAllConfig{8, 2};
  good.faults = FaultSpec::none();
  const std::vector<ScenarioResult> rows =
      ParallelScenarioRunner(2).run("mixed", {bad, good});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].ok);
  EXPECT_NE(rows[0].violation.find("no_such_protocol"), std::string::npos);
  EXPECT_TRUE(rows[1].ok);
}

TEST(ParallelScenarioRunner, RepetitionsExpandToIndexedRows) {
  Scenario s;
  s.id = s.group = "reps";
  s.protocol = "A";
  s.cfg = DoAllConfig{32, 4};
  s.faults = FaultSpec::random(0.1, 3, 11);
  s.repetitions = 5;
  const std::vector<ScenarioResult> rows = ParallelScenarioRunner(2).run("reps", {s});
  ASSERT_EQ(rows.size(), 5u);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(rows[static_cast<std::size_t>(rep)].rep, rep);
    EXPECT_TRUE(rows[static_cast<std::size_t>(rep)].ok)
        << rows[static_cast<std::size_t>(rep)].violation;
  }
}

// --- report -----------------------------------------------------------------

TEST(Report, AggregatesByGroupInFirstOccurrenceOrder) {
  ScenarioResult r1, r2, r3;
  r1.group = "g1";
  r1.work = 10;
  r1.last_round = Round{5};
  r1.ok = true;
  r2.group = "g2";
  r2.work = 99;
  r2.last_round = BigUint::pow2(80);
  r2.ok = true;
  r3.group = "g1";
  r3.work = 30;
  r3.last_round = Round{12};
  r3.ok = false;
  const std::vector<GroupAggregate> groups = aggregate({r1, r2, r3});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].group, "g1");
  EXPECT_EQ(groups[0].metrics.runs, 2u);
  EXPECT_EQ(groups[0].metrics.max_work, 30u);
  EXPECT_EQ(groups[0].metrics.max_rounds, Round{12});
  EXPECT_FALSE(groups[0].metrics.all_ok);
  EXPECT_EQ(groups[1].group, "g2");
  EXPECT_EQ(groups[1].metrics.max_rounds, BigUint::pow2(80));
  EXPECT_TRUE(groups[1].metrics.all_ok);
}

TEST(Report, ExtrasReduceAcrossGroupRows) {
  // A group's extra columns must be reduced over ALL rows (union of keys,
  // max of magnitudes, NO-dominates flags) -- not copied from the first row.
  ScenarioResult r1, r2, r3;
  r1.group = r2.group = r3.group = "g";
  r1.ok = r2.ok = r3.ok = true;
  r1.extra = {{"polls", "8"}, {"agreement", "yes"}};
  r2.extra = {{"polls", "12"}, {"aps", "~2^80"}, {"agreement", "yes"}};
  r3.extra = {{"polls", "9"}, {"aps", "999"}, {"agreement", "NO"}};
  const std::vector<GroupAggregate> groups = aggregate({r1, r2, r3});
  ASSERT_EQ(groups.size(), 1u);
  const auto value_of = [&](const std::string& key) -> std::string {
    for (const auto& [k, v] : groups[0].extra)
      if (k == key) return v;
    return "<missing>";
  };
  EXPECT_EQ(value_of("polls"), "12");     // max over rows, not first row's 8
  EXPECT_EQ(value_of("aps"), "~2^80");    // ~2^k dominates any decimal
  EXPECT_EQ(value_of("agreement"), "NO");  // a failing flag must surface
}

TEST(Report, JsonEscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Report, TimingSectionIsOptInAndRowsStayClean) {
  const ExperimentInfo* smoke = find_experiment("smoke");
  ASSERT_NE(smoke, nullptr);
  const std::vector<ScenarioResult> rows =
      ParallelScenarioRunner(2).run("smoke", smoke->scenarios());
  const std::string plain = to_json("smoke", rows);
  const std::string timed = to_json("smoke", rows, /*include_timing=*/true);
  // Default output carries no machine-dependent bytes...
  EXPECT_EQ(plain.find("timing"), std::string::npos);
  EXPECT_EQ(plain.find("ms"), std::string::npos);
  // ...and the opt-in form only APPENDS the timing section: the
  // deterministic prefix is byte-identical.
  const std::string prefix = plain.substr(0, plain.size() - 1);  // drop the closing '}'
  ASSERT_EQ(timed.compare(0, prefix.size(), prefix), 0);
  // The section is per-row measurements and the process's peak RSS:
  // {"rows":[{"id","rep","wall_ms"[,"units_per_sec"]}...],"peak_rss_mb"},
  // timing.rows[i] carrying rows[i]'s id and rep -- the positional join
  // bench/compare_bench.py checks before deriving every rollup.
  const auto is_decimal = [](const std::string& s) {
    return !s.empty() && s.find_first_not_of("0123456789.") == std::string::npos;
  };
  const std::string section = timed.substr(prefix.size());
  const std::string open = ",\"timing\":{\"rows\":[";
  ASSERT_EQ(section.compare(0, open.size(), open), 0) << section;
  std::size_t pos = open.size();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string head = std::string(i ? "," : "") + "{\"id\":\"" +
                             json_escape(rows[i].id) + "\",\"rep\":" +
                             std::to_string(rows[i].rep) + ",\"wall_ms\":";
    ASSERT_EQ(section.compare(pos, head.size(), head), 0) << "timing row " << i;
    const std::size_t close = section.find('}', pos + head.size());
    ASSERT_NE(close, std::string::npos);
    const std::string fields = section.substr(pos + head.size(), close - pos - head.size());
    const std::string ups = ",\"units_per_sec\":";
    const std::size_t split = fields.find(ups);
    EXPECT_TRUE(is_decimal(fields.substr(0, split)) &&
                (split == std::string::npos || is_decimal(fields.substr(split + ups.size()))))
        << "unexpected timing fields in row " << i << ": " << fields;
    pos = close + 1;
  }
  const std::string peak = "],\"peak_rss_mb\":";
  ASSERT_EQ(section.compare(pos, peak.size(), peak), 0) << section.substr(pos);
  const std::string tail = section.substr(pos + peak.size());
  ASSERT_GE(tail.size(), 2u);
  EXPECT_EQ(tail.substr(tail.size() - 2), "}}");
  const std::string mb = tail.substr(0, tail.size() - 2);
  EXPECT_TRUE(is_decimal(mb)) << mb;
#ifdef __linux__
  // This process's VmHWM: a test binary that ran the smoke family holds
  // more than a megabyte.
  EXPECT_GT(std::stod(mb), 1.0) << mb;
#endif
}

// --- golden JSON: the simulator optimisations must be unobservable ----------

// tests/golden/*.json were captured from the pre-optimisation simulator
// (the O(t)-scan scheduler, unshared buffers, byte-packed Protocol D views).
// The reports produced by today's binary must match them byte for byte:
// scheduling, delivery order, every metric, and the JSON encoding itself are
// all pinned.  Regenerate a golden only for a deliberate semantic change:
//   ./build/dowork_bench --experiment <name> --jobs 1 --quiet
//       --json tests/golden/<name>.json   (one command line)
class GoldenJson : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenJson, ByteIdenticalToPreOptimizationCapture) {
  const char* name = GetParam();
  const ExperimentInfo* e = find_experiment(name);
  ASSERT_NE(e, nullptr);
  // The bench writes the document plus a trailing newline.
  const std::string produced =
      to_json(name, ParallelScenarioRunner(4).run(name, e->scenarios())) + "\n";
  const std::string path =
      std::string(DOWORK_SOURCE_DIR) + "/tests/golden/" + name + ".json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(produced, golden.str())
      << "JSON drifted from the golden capture; if the change is an intended "
         "semantic change, regenerate " << path;
}

// protocol_c was captured from the pre-two-tier-Round binary (PR 3): its
// rows' exact exponential round counts pin that promoted deadlines still
// compare, format and order exactly as the flat 512-bit representation did.
// protocol_d and dynamic were captured before D_coord and dynamic D were
// moved onto Protocol D's shared phase core (work slice, agreement receive,
// revert-to-A wrapper) and its phase loop: they pin D's T5b revert,
// D_coord's coordinator-dies fallback and every dynamic row, whose views
// are now D's own agreement views with a known set.  wan_latency,
// lossy_link, partition_heal and byzantine were captured before the sent
// round moved into DeliveryRecord: they pin the latency-delayed record path
// (records arriving with their own sent rounds), loss- and
// partition-rewritten audiences, and the Byzantine layer's mail wrapper.
// live_throughput was captured before run_do_all became the one entry point
// for every backend: it pins the kLive rows' "live" label, their kill_*
// columns (now read from the simulator's census) and the sim/live pairing.
// adversary_search was captured before a re-armed timeout kept its wake-queue
// entry as a lower bound: adaptive adversaries read committed state between
// steps, so it pins the step order of A, B, C and D under them, C's promoted
// (>2^64) deadlines through fast-forward included.
// protocol_a, protocol_b, time_a_vs_b and async were captured before A, B and
// asynchronous A moved onto one checkpoint core: they pin the A/B takeover
// resume paths, B's go-ahead probes and the async failure-detector trigger.
INSTANTIATE_TEST_SUITE_P(PreOptimizationCaptures, GoldenJson,
                         ::testing::Values("smoke", "checkpoint_sweep", "protocol_c",
                                           "protocol_d", "dynamic", "wan_latency",
                                           "lossy_link", "partition_heal", "byzantine",
                                           "live_throughput", "adversary_search", "protocol_a",
                                           "protocol_b", "time_a_vs_b", "async"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace
}  // namespace dowork::harness
