#include "agreement/byzantine.h"

#include <gtest/gtest.h>

#include "substrate/differential.h"

namespace dowork {
namespace {

TEST(Byzantine, FailureFreeAllProtocolsDecideGeneralsValue) {
  for (const char* proto : {"A", "B", "C"}) {
    ByzantineConfig cfg;
    cfg.n_procs = 24;
    cfg.t_faults = 5;
    cfg.value = 7;
    cfg.protocol = proto;
    ByzantineResult r = run_byzantine(cfg, std::make_unique<NoFaults>());
    EXPECT_TRUE(r.agreement) << proto;
    EXPECT_TRUE(r.validity) << proto;
    EXPECT_FALSE(r.general_crashed) << proto;
    for (int i = 0; i < cfg.n_procs; ++i) {
      ASSERT_TRUE(r.decisions[static_cast<std::size_t>(i)].has_value()) << proto << " proc " << i;
      EXPECT_EQ(*r.decisions[static_cast<std::size_t>(i)], 7) << proto << " proc " << i;
    }
  }
}

TEST(Byzantine, GeneralCrashesMidBroadcastStillAgree) {
  // The general reaches only 2 of the senders with its value; agreement must
  // still hold (validity is vacuous).
  for (const char* proto : {"A", "B", "C"}) {
    ByzantineConfig cfg;
    cfg.n_procs = 16;
    cfg.t_faults = 4;
    cfg.value = 9;
    cfg.protocol = proto;
    std::vector<ScheduledFaults::Entry> entries{{0, 1, CrashPlan{false, 2}}};
    ByzantineResult r =
        run_byzantine(cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
    EXPECT_TRUE(r.general_crashed) << proto;
    EXPECT_TRUE(r.agreement) << proto;
    EXPECT_TRUE(r.validity) << proto;  // vacuously
  }
}

TEST(Byzantine, GeneralCrashReachingNobodyDecidesDefault) {
  ByzantineConfig cfg;
  cfg.n_procs = 12;
  cfg.t_faults = 3;
  cfg.value = 5;
  cfg.protocol = "B";
  std::vector<ScheduledFaults::Entry> entries{{0, 1, CrashPlan{false, 0}}};
  ByzantineResult r = run_byzantine(cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  EXPECT_TRUE(r.general_crashed);
  EXPECT_TRUE(r.agreement);
  // Nobody heard 5: all survivors decide the default 0.
  for (int i = 1; i < cfg.n_procs; ++i) {
    if (r.decisions[static_cast<std::size_t>(i)]) {
      EXPECT_EQ(*r.decisions[static_cast<std::size_t>(i)], 0);
    }
  }
}

TEST(Byzantine, SenderCascadeCrashesKeepAgreement) {
  for (const char* proto : {"A", "B", "C"}) {
    ByzantineConfig cfg;
    cfg.n_procs = 20;
    cfg.t_faults = 4;
    cfg.value = 3;
    cfg.protocol = proto;
    // Every active sender dies after informing 2 processes.
    ByzantineResult r = run_byzantine(
        cfg, std::make_unique<WorkCascadeFaults>(2, cfg.t_faults, /*deliver_prefix=*/1));
    EXPECT_TRUE(r.agreement) << proto;
    EXPECT_TRUE(r.validity) << proto;
  }
}

TEST(Byzantine, MessageComplexityMatchesSectionFive) {
  // Via B: O(n + t sqrt t) messages; via C: O(n + t log t).
  ByzantineConfig cfg;
  cfg.n_procs = 64;
  cfg.t_faults = 15;  // 16 senders
  cfg.value = 2;

  cfg.protocol = "B";
  ByzantineResult rb = run_byzantine(cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(rb.agreement && rb.validity);
  const std::uint64_t t1 = 16, s = 4;
  EXPECT_LE(rb.metrics.messages_total, 64u + 10 * t1 * s + 10 * s * s + t1);

  cfg.protocol = "C";
  ByzantineResult rc = run_byzantine(cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(rc.agreement && rc.validity);
  EXPECT_LE(rc.metrics.messages_total, 64u + 8 * t1 * 4 + 4 * t1 + t1);
}

class ByzantineRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(ByzantineRandom, RandomCrashSchedulesPreserveAgreementAndValidity) {
  for (const char* proto : {"A", "B", "C"}) {
    ByzantineConfig cfg;
    cfg.n_procs = 18;
    cfg.t_faults = 5;
    cfg.value = 11;
    cfg.protocol = proto;
    ByzantineResult r = run_byzantine(
        cfg, std::make_unique<RandomFaults>(0.05, cfg.t_faults, GetParam()));
    EXPECT_TRUE(r.agreement) << proto << " seed " << GetParam();
    EXPECT_TRUE(r.validity) << proto << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ByzantineRandom, ::testing::Range(0u, 15u));

TEST(Byzantine, RejectsBadConfigs) {
  ByzantineConfig cfg;
  cfg.n_procs = 4;
  cfg.t_faults = 4;  // t+1 senders > n
  EXPECT_THROW(run_byzantine(cfg, std::make_unique<NoFaults>()), std::invalid_argument);
  // Everyone starts at 0, so a 0 would be "decided" without the general.
  cfg.t_faults = 2;
  cfg.value = 0;
  EXPECT_THROW(run_byzantine(cfg, std::make_unique<NoFaults>()), std::invalid_argument);
  // Socket workers build registry protocols by name; this run is not one.
  cfg.value = 1;
  RunOptions socket;
  socket.backend = Backend::kSocket;
  EXPECT_THROW(run_byzantine(cfg, std::make_unique<NoFaults>(), socket), std::invalid_argument);
}

// The run goes through run_do_all, so the round pool and the supervised pool
// (deterministic schedule) must reproduce the serial run: every metric, the
// recorded crashes and decisions included, and the verdict.
TEST(Byzantine, RoundPoolAndSupervisedPoolMatchTheSerialRun) {
  RunOptions threads;
  threads.sim_threads = 4;
  RunOptions pool;
  pool.backend = Backend::kPool;
  for (const char* proto : {"A", "B", "C"}) {
    ByzantineConfig cfg;
    cfg.n_procs = 18;
    cfg.t_faults = 5;
    cfg.value = 11;
    cfg.protocol = proto;
    auto faults = [&] { return std::make_unique<RandomFaults>(0.05, cfg.t_faults, 2); };
    const ByzantineResult serial = run_byzantine(cfg, faults());
    ASSERT_EQ(serial.violation, "") << proto;
    ASSERT_GT(serial.metrics.crashes, 0u) << proto;
    ASSERT_EQ(serial.metrics.decisions.size(), 18u) << proto;
    for (const RunOptions& opts : {threads, pool}) {
      const ByzantineResult r = run_byzantine(cfg, faults(), opts);
      EXPECT_EQ(substrate::compare_metrics(serial.metrics, r.metrics), "") << proto;
      EXPECT_EQ(r.decisions, serial.decisions) << proto;
      EXPECT_EQ(r.violation, serial.violation) << proto;
      EXPECT_EQ(r.general_crashed, serial.general_crashed) << proto;
    }
  }
}

}  // namespace
}  // namespace dowork
