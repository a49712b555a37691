// Tests for the coordinator variant of Protocol D (Section 4, closing
// remark): 2(t-1) failure-free messages per agreement phase, reactive
// fallback to broadcast agreement when the coordinator dies.
#include "protocols/protocol_d_coord.h"

#include <gtest/gtest.h>

#include "core/runner.h"

namespace dowork {
namespace {

TEST(ProtocolDCoord, FailureFreeUsesTwoTMinusOneMessages) {
  DoAllConfig cfg{64, 8};
  RunResult r = run_do_all("D_coord", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 64u);
  // One agreement phase: (t-1) reports + (t-1) final-view messages.
  EXPECT_EQ(r.metrics.messages_total, 2u * 7u);
  // Time: n/t work rounds + the constant agreement window.
  EXPECT_LE(r.metrics.last_retire_round, Round{64u / 8u + 10u});
  EXPECT_EQ(r.metrics.max_concurrent_workers, 8u);
}

TEST(ProtocolDCoord, QuadraticallyFewerMessagesThanBroadcastD) {
  DoAllConfig cfg{128, 32};
  RunResult bcast = run_do_all("D", cfg, std::make_unique<NoFaults>());
  RunResult coord = run_do_all("D_coord", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(bcast.ok());
  ASSERT_TRUE(coord.ok());
  EXPECT_EQ(bcast.metrics.messages_total, 2u * 32u * 31u);  // 2t(t-1)
  EXPECT_EQ(coord.metrics.messages_total, 2u * 31u);        // 2(t-1)
}

TEST(ProtocolDCoord, SingleProcess) {
  DoAllConfig cfg{10, 1};
  RunResult r = run_do_all("D_coord", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.messages_total, 0u);
}

TEST(ProtocolDCoord, WorkerCrashIsAbsorbedByTheCoordinator) {
  DoAllConfig cfg{64, 8};
  // Process 3 dies mid work phase; the coordinator times its report out and
  // excludes it from the final view; survivors redo its slice.
  std::vector<ScheduledFaults::Entry> entries{{3, 2, CrashPlan{true, 0}}};
  RunResult r = run_do_all("D_coord", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_LE(r.metrics.work_total, 64u + 8u);
  // Exact figures pin the phase machinery it shares with Protocol D (work
  // slice, terminate-or-revert decision) against drift.
  EXPECT_EQ(r.metrics.work_total, 66u);
  EXPECT_EQ(r.metrics.messages_total, 25u);
  EXPECT_EQ(r.metrics.last_retire_round, Round{26u});
}

TEST(ProtocolDCoord, CoordinatorCrashBeforeFinalTriggersFallback) {
  DoAllConfig cfg{64, 8};
  // Process 0 (phase-1 coordinator) dies on its last work unit, before it
  // can broadcast the final view; everyone falls back to broadcast
  // agreement and the run completes.
  std::vector<ScheduledFaults::Entry> entries{{0, 8, CrashPlan{true, 0}}};
  RunResult r = run_do_all("D_coord", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.crashes, 1u);
  // Fallback pays broadcast-agreement messages.
  EXPECT_GT(r.metrics.messages_total, 2u * 7u);
  // Exact figures pin the fallback's shared receive check (grace 2).
  EXPECT_EQ(r.metrics.work_total, 72u);
  EXPECT_EQ(r.metrics.messages_total, 250u);
  EXPECT_EQ(r.metrics.last_retire_round, Round{28u});
}

TEST(ProtocolDCoord, CoordinatorCrashMidFinalBroadcastStaysConsistent) {
  DoAllConfig cfg{64, 8};
  // The coordinator performs 8 units (actions 1..8), sends nothing at the
  // agreement entry (it collects), then its 9th action is the final-view
  // broadcast: crash it there, delivering to 3 of 7 recipients.  The
  // adopters answer the fallback and every survivor leaves with one view.
  std::vector<ScheduledFaults::Entry> entries{{0, 9, CrashPlan{false, 3}}};
  RunResult r = run_do_all("D_coord", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.crashes, 1u);
  EXPECT_EQ(r.metrics.work_total, 64u);
  EXPECT_EQ(r.metrics.messages_total, 115u);
  EXPECT_EQ(r.metrics.last_retire_round, Round{16u});
}

TEST(ProtocolDCoord, MajorityLossRevertsToProtocolA) {
  DoAllConfig cfg{64, 8};
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 1; p < 6; ++p) entries.push_back({p, 2, CrashPlan{true, 0}});
  RunResult r = run_do_all("D_coord", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_GT(r.metrics.messages_of(MsgKind::kCheckpoint), 0u);  // Protocol A traffic
  // Exact figures pin the shared revert wrapper (rank translation, start
  // round) -- no experiment row runs D_coord's revert.
  EXPECT_EQ(r.metrics.work_total, 77u);
  EXPECT_EQ(r.metrics.messages_total, 16u);
  EXPECT_EQ(r.metrics.last_retire_round, Round{63u});
}

TEST(ProtocolDCoord, RevertedRunTakesOverOnProtocolASchedule) {
  // As above, then process 0 -- rank 0 of the survivors, so the embedded
  // Protocol A's first worker -- dies after the revert; the takeover's
  // round depends on the shared revert wrapper's start round.
  DoAllConfig cfg{64, 8};
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 1; p < 6; ++p) entries.push_back({p, 2, CrashPlan{true, 0}});
  entries.push_back({0, 12, CrashPlan{true, 0}});
  RunResult r = run_do_all("D_coord", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 79u);
  EXPECT_EQ(r.metrics.messages_total, 11u);
  EXPECT_EQ(r.metrics.last_retire_round, Round{108u});
}

struct SweepCase {
  std::int64_t n;
  int t;
  int fault_mode;
  unsigned seed;
};

class DCoordSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DCoordSweep, AlwaysCompletes) {
  const SweepCase& c = GetParam();
  DoAllConfig cfg{c.n, c.t};
  std::unique_ptr<FaultInjector> faults;
  switch (c.fault_mode) {
    case 1: faults = std::make_unique<WorkCascadeFaults>(1, c.t - 1, 0); break;
    case 2: faults = std::make_unique<WorkCascadeFaults>(3, c.t - 1, 2); break;
    case 3: faults = std::make_unique<RandomFaults>(0.05, c.t - 1, c.seed); break;
    default: faults = std::make_unique<NoFaults>(); break;
  }
  RunResult r = run_do_all("D_coord", cfg, std::move(faults));
  ASSERT_TRUE(r.ok()) << r.violation << " (" << cfg.to_string() << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DCoordSweep,
    ::testing::Values(SweepCase{16, 4, 0, 0}, SweepCase{16, 4, 1, 0}, SweepCase{16, 4, 2, 0},
                      SweepCase{16, 4, 3, 1}, SweepCase{100, 10, 1, 0}, SweepCase{100, 10, 2, 0},
                      SweepCase{100, 10, 3, 2}, SweepCase{64, 16, 1, 0}, SweepCase{64, 16, 3, 3},
                      SweepCase{8, 16, 1, 0}, SweepCase{1, 4, 1, 0}, SweepCase{33, 11, 2, 0},
                      SweepCase{33, 11, 3, 6}, SweepCase{128, 2, 1, 0}, SweepCase{40, 3, 3, 8}));

class DCoordRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(DCoordRandom, RandomSchedulesAlwaysComplete) {
  DoAllConfig cfg{120, 12};
  RunResult r = run_do_all("D_coord", cfg, std::make_unique<RandomFaults>(0.05, 11, GetParam()));
  ASSERT_TRUE(r.ok()) << r.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DCoordRandom, ::testing::Range(0u, 25u));

}  // namespace
}  // namespace dowork
