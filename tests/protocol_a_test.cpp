#include "protocols/protocol_a.h"

#include <gtest/gtest.h>

#include "core/runner.h"
#include "sweep_case.h"

namespace dowork {
namespace {

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

// Generalized Theorem 2.3 bounds (n' = max(n, t), s = ceil(sqrt t)); small
// additive slack covers the non-square / non-divisible generalization.
void expect_theorem_2_3_bounds(const DoAllConfig& cfg, const RunMetrics& m) {
  const std::int64_t n_prime = std::max(cfg.n, static_cast<std::int64_t>(cfg.t));
  const std::int64_t s = int_sqrt_ceil(cfg.t);
  EXPECT_LE(m.work_total, 3 * u(n_prime) + u(cfg.t)) << "work bound";
  EXPECT_LE(m.messages_total, 9 * u(cfg.t) * u(s) + 9 * u(s) * u(s)) << "message bound";
  Round limit = Round{u(n_prime) + 3 * u(cfg.t)} * u(cfg.t) + Round{u(cfg.t)};
  EXPECT_LE(m.last_retire_round, limit) << "round bound";
  EXPECT_LE(m.max_concurrent_workers, 1u) << "single active process";
}

TEST(ProtocolA, FailureFreeProcessZeroDoesEverything) {
  DoAllConfig cfg{64, 16};
  RunResult r = run_do_all("A", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 64u);
  EXPECT_EQ(r.metrics.work_by_proc[0], 64u);
  // Only checkpoint traffic; well under the worst-case bound.
  EXPECT_EQ(r.metrics.messages_of(MsgKind::kCheckpoint), r.metrics.messages_total);
  expect_theorem_2_3_bounds(cfg, r.metrics);
  // Failure-free time: n work rounds + < 3t checkpoint rounds (Lemma 2.1).
  EXPECT_LE(r.metrics.last_retire_round, Round{64u + 3u * 16u});
}

TEST(ProtocolA, SingleProcess) {
  DoAllConfig cfg{10, 1};
  RunResult r = run_do_all("A", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 10u);
  EXPECT_EQ(r.metrics.messages_total, 0u);
}

TEST(ProtocolA, EveryProcessButLastCrashesImmediately) {
  DoAllConfig cfg{20, 9};
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 0; p < 8; ++p) entries.push_back({p, 1, CrashPlan{false, 0}});
  RunResult r = run_do_all("A", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_by_proc[8], 20u);
  expect_theorem_2_3_bounds(cfg, r.metrics);
}

TEST(ProtocolA, CrashDuringPartialCheckpointLosesNothingPermanently) {
  DoAllConfig cfg{16, 4};  // s = 2, subchunks of 4 units
  // Process 0 works 4 units (actions 1-4), then crashes during the partial
  // checkpoint (action 5) delivering it to nobody.
  std::vector<ScheduledFaults::Entry> entries{{0, 5, CrashPlan{false, 0}}};
  RunResult r = run_do_all("A", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  // Successor knew nothing, so the first subchunk is redone: work = 16 + 4.
  EXPECT_EQ(r.metrics.work_total, 20u);
  expect_theorem_2_3_bounds(cfg, r.metrics);
}

TEST(ProtocolA, CrashMidBroadcastDeliversPrefixOnly) {
  DoAllConfig cfg{16, 4};
  // Crash during the first partial checkpoint, reaching only process 1.
  std::vector<ScheduledFaults::Entry> entries{{0, 5, CrashPlan{true, 1}}};
  RunResult r = run_do_all("A", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  // Process 1 heard (1): it resumes from subchunk 2 -- no work redone.
  EXPECT_EQ(r.metrics.work_total, 16u);
  EXPECT_EQ(r.metrics.work_by_proc[1], 12u);
  expect_theorem_2_3_bounds(cfg, r.metrics);
}

TEST(ProtocolA, TakeoverFromFullCheckpointEcho) {
  DoAllConfig cfg{36, 9};  // s = 3; chunk = 3 subchunks = 12 units
  // Process 0 performs chunk 1 (12 units) + 3 partial checkpoints = 15
  // actions, then the full checkpoint: direct to group 1 (action 16), echo
  // (action 17), direct to group 2 (action 18) -- crash there, nobody hears.
  std::vector<ScheduledFaults::Entry> entries{{0, 18, CrashPlan{false, 0}}};
  RunResult r = run_do_all("A", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 36u);  // chunk 1 known everywhere needed
  expect_theorem_2_3_bounds(cfg, r.metrics);
}

class ProtocolASweep : public ::testing::TestWithParam<SweepCase> {};

std::unique_ptr<FaultInjector> make_faults(const SweepCase& c) {
  switch (c.fault_mode) {
    case 1:
      return std::make_unique<WorkCascadeFaults>(1, c.t - 1, /*deliver_prefix=*/0);
    case 2:
      return std::make_unique<WorkCascadeFaults>(u(ceil_div(c.n, c.t)) + 1, c.t - 1,
                                                 /*deliver_prefix=*/1);
    case 3:
      return std::make_unique<RandomFaults>(0.05, c.t - 1, c.seed);
    default:
      return std::make_unique<NoFaults>();
  }
}

TEST_P(ProtocolASweep, CompletesWithinTheorem23Bounds) {
  const SweepCase& c = GetParam();
  DoAllConfig cfg{c.n, c.t};
  RunResult r = run_do_all("A", cfg, make_faults(c));
  ASSERT_TRUE(r.ok()) << r.violation << " (" << cfg.to_string() << ")";
  expect_theorem_2_3_bounds(cfg, r.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolASweep,
    ::testing::Values(
        SweepCase{16, 4, 0, 0}, SweepCase{16, 4, 1, 0}, SweepCase{16, 4, 2, 0},
        SweepCase{16, 4, 3, 1}, SweepCase{100, 10, 0, 0}, SweepCase{100, 10, 1, 0},
        SweepCase{100, 10, 2, 0}, SweepCase{100, 10, 3, 2}, SweepCase{64, 16, 1, 0},
        SweepCase{64, 16, 2, 0}, SweepCase{64, 16, 3, 3}, SweepCase{50, 7, 1, 0},
        SweepCase{50, 7, 3, 4}, SweepCase{8, 16, 1, 0},   // n < t
        SweepCase{8, 16, 3, 5}, SweepCase{1, 4, 1, 0},    // single unit
        SweepCase{33, 11, 2, 0}, SweepCase{33, 11, 3, 6}, // prime t
        SweepCase{256, 25, 1, 0}, SweepCase{256, 25, 3, 7},
        SweepCase{128, 2, 1, 0}, SweepCase{40, 3, 2, 0}, SweepCase{40, 3, 3, 8},
        SweepCase{500, 36, 3, 9}, SweepCase{81, 81, 1, 0}, SweepCase{81, 81, 3, 10}));

// Different random seeds, moderately large instance.
class ProtocolARandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(ProtocolARandom, RandomCrashSchedulesAlwaysComplete) {
  DoAllConfig cfg{120, 12};
  RunResult r = run_do_all("A", cfg, std::make_unique<RandomFaults>(0.08, 11, GetParam()));
  ASSERT_TRUE(r.ok()) << r.violation;
  expect_theorem_2_3_bounds(cfg, r.metrics);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolARandom, ::testing::Range(0u, 20u));

}  // namespace
}  // namespace dowork
