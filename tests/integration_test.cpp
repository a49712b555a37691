// Cross-protocol integration and property tests: every registered protocol,
// under systematic adversaries, must complete the work whenever one process
// survives, with sane accounting.
#include <gtest/gtest.h>

#include "core/runner.h"

namespace dowork {
namespace {

std::vector<std::string> protocol_names() {
  std::vector<std::string> names;
  for (const ProtocolInfo& p : all_protocols()) names.push_back(p.name);
  return names;
}

// --- systematic crash-position sweep --------------------------------------
// Crash the k-th non-idle action of the process that reaches it first, for
// every k in a range: this walks the crash point across work, partial
// checkpoint, full checkpoint, agreement and probing rounds of each
// protocol.  Completion must hold at every position.

struct CrashPosCase {
  std::string protocol;
  std::uint64_t kth_action;
};

// GoogleTest printers for the sweep parameters: CTest names end in
// "GetParam() = A k=3", not in the struct's raw bytes (heap pointers
// included), so they are the same on every run.
void PrintTo(const CrashPosCase& c, std::ostream* os) {
  *os << c.protocol << " k=" << c.kth_action;
}

class CrashPositionSweep : public ::testing::TestWithParam<CrashPosCase> {};

TEST_P(CrashPositionSweep, AnySingleCrashPositionCompletes) {
  const auto& c = GetParam();
  DoAllConfig cfg{24, 6};
  // Process 0 is the first to act in every protocol here; crash it at the
  // exact k-th action with an ugly half-delivered broadcast.
  std::vector<ScheduledFaults::Entry> entries{{0, c.kth_action, CrashPlan{false, 1}}};
  RunResult r =
      run_do_all(c.protocol, cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << c.protocol << " crash at action " << c.kth_action << ": "
                      << r.violation;
}

std::vector<CrashPosCase> crash_position_grid() {
  std::vector<CrashPosCase> cases;
  for (const std::string& proto : protocol_names()) {
    for (std::uint64_t k = 1; k <= 30; k += (k < 10 ? 1 : 3))
      cases.push_back({proto, k});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, CrashPositionSweep,
                         ::testing::ValuesIn(crash_position_grid()),
                         [](const auto& info) {
                           return info.param.protocol + "_k" +
                                  std::to_string(info.param.kth_action);
                         });

// --- two-crash interleavings ----------------------------------------------

struct DoubleCrashCase {
  std::string protocol;
  std::uint64_t k0, k1;
};

void PrintTo(const DoubleCrashCase& c, std::ostream* os) {
  *os << c.protocol << " k0=" << c.k0 << " k1=" << c.k1;
}

class DoubleCrashSweep : public ::testing::TestWithParam<DoubleCrashCase> {};

TEST_P(DoubleCrashSweep, TwoCrashesAtChosenPositionsComplete) {
  const auto& c = GetParam();
  DoAllConfig cfg{20, 5};
  std::vector<ScheduledFaults::Entry> entries{{0, c.k0, CrashPlan{true, 0}},
                                              {1, c.k1, CrashPlan{false, 2}}};
  RunResult r =
      run_do_all(c.protocol, cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << c.protocol << " crashes at " << c.k0 << "," << c.k1 << ": "
                      << r.violation;
}

std::vector<DoubleCrashCase> double_crash_grid() {
  std::vector<DoubleCrashCase> cases;
  for (const std::string& proto : protocol_names()) {
    for (std::uint64_t k0 : {1u, 4u, 9u, 17u})
      for (std::uint64_t k1 : {1u, 3u, 8u, 20u}) cases.push_back({proto, k0, k1});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DoubleCrashSweep,
                         ::testing::ValuesIn(double_crash_grid()),
                         [](const auto& info) {
                           return info.param.protocol + "_" + std::to_string(info.param.k0) +
                                  "_" + std::to_string(info.param.k1);
                         });

// --- accounting sanity across protocols ------------------------------------

class ProtocolAccounting : public ::testing::TestWithParam<std::string> {};

TEST_P(ProtocolAccounting, MetricsAreInternallyConsistent) {
  DoAllConfig cfg{30, 6};
  RunResult r = run_do_all(GetParam(), cfg, std::make_unique<RandomFaults>(0.06, 5, 7));
  ASSERT_TRUE(r.ok()) << r.violation;
  const RunMetrics& m = r.metrics;

  std::uint64_t by_kind = 0;
  for (std::uint64_t v : m.messages_by_kind) by_kind += v;
  EXPECT_EQ(by_kind, m.messages_total);

  std::uint64_t by_proc_w = 0, by_proc_m = 0;
  for (std::uint64_t v : m.work_by_proc) by_proc_w += v;
  for (std::uint64_t v : m.messages_by_proc) by_proc_m += v;
  EXPECT_EQ(by_proc_w, m.work_total);
  EXPECT_EQ(by_proc_m, m.messages_total);

  std::uint64_t by_unit = 0;
  for (std::uint64_t v : m.unit_multiplicity) by_unit += v;
  EXPECT_EQ(by_unit, m.work_total);
  EXPECT_EQ(m.effort(), m.work_total + m.messages_total);
  EXPECT_EQ(m.crashes + m.terminated, static_cast<std::uint64_t>(cfg.t));
}

TEST_P(ProtocolAccounting, FailureFreeDoesEveryUnitAtMostTwicePerProcess) {
  DoAllConfig cfg{30, 6};
  RunResult r = run_do_all(GetParam(), cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.crashes, 0u);
  for (std::uint64_t mult : r.metrics.unit_multiplicity)
    EXPECT_LE(mult, static_cast<std::uint64_t>(cfg.t));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolAccounting,
                         ::testing::ValuesIn(protocol_names()),
                         [](const auto& info) { return info.param; });

// --- work optimality comparison ---------------------------------------------

TEST(Integration, WorkOptimalProtocolsBeatBaselineAllUnderNoFaults) {
  DoAllConfig cfg{120, 16};
  RunResult all = run_do_all("baseline_all", cfg, std::make_unique<NoFaults>());
  for (const char* proto : {"A", "B", "C", "D"}) {
    RunResult r = run_do_all(proto, cfg, std::make_unique<NoFaults>());
    ASSERT_TRUE(r.ok());
    EXPECT_LT(r.metrics.work_total, all.metrics.work_total / 4) << proto;
  }
}

TEST(Integration, DeterministicGivenSeed) {
  DoAllConfig cfg{50, 8};
  for (const char* proto : {"A", "B", "C", "D"}) {
    RunResult r1 = run_do_all(proto, cfg, std::make_unique<RandomFaults>(0.1, 7, 99));
    RunResult r2 = run_do_all(proto, cfg, std::make_unique<RandomFaults>(0.1, 7, 99));
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(r1.metrics.work_total, r2.metrics.work_total) << proto;
    EXPECT_EQ(r1.metrics.messages_total, r2.metrics.messages_total) << proto;
    EXPECT_EQ(r1.metrics.last_retire_round, r2.metrics.last_retire_round) << proto;
    EXPECT_EQ(r1.metrics.crashes, r2.metrics.crashes) << proto;
  }
}

TEST(Integration, SequentialProtocolsNeverOverlapWorkers) {
  // Stronger check than the verifier default: run many seeds.
  for (unsigned seed = 0; seed < 10; ++seed) {
    for (const char* proto : {"A", "B", "C", "baseline_checkpoint"}) {
      DoAllConfig cfg{36, 9};
      RunResult r = run_do_all(proto, cfg, std::make_unique<RandomFaults>(0.1, 8, seed));
      ASSERT_TRUE(r.ok()) << proto << " seed " << seed << ": " << r.violation;
      EXPECT_LE(r.metrics.max_concurrent_workers, 1u) << proto << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dowork
