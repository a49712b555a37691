#include "protocols/protocol_c.h"

#include <gtest/gtest.h>

#include "core/runner.h"
#include "sweep_case.h"

namespace dowork {
namespace {

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

// Theorem 3.8 bounds, generalized to padded T = 2^ceil(log2 t): work <=
// n + 2t, messages <= n + 8 T log T (plus small slack for the padding).
void expect_theorem_3_8_bounds(const DoAllConfig& cfg, const RunMetrics& m) {
  const int T = pow2_ceil(cfg.t);
  const int L = std::max(1, log2_of_pow2(T));
  EXPECT_LE(m.work_total, u(cfg.n) + 2 * u(cfg.t)) << "work bound (Thm 3.8a)";
  EXPECT_LE(m.messages_total, u(cfg.n) + 8 * u(T) * u(L) + 4 * u(T))
      << "message bound (Thm 3.8b)";
  EXPECT_LE(m.max_concurrent_workers, 1u) << "single active process (Lemma 3.4d)";
}

TEST(LevelTree, GeometryForEight) {
  LevelTree tr(8);
  EXPECT_EQ(tr.padded(), 8);
  EXPECT_EQ(tr.levels(), 3);
  EXPECT_EQ(tr.num_groups(), 7);
  // Level 1: one group of 8; level 2: two of 4; level 3: four pairs.
  EXPECT_EQ(tr.group_size(1), 8);
  EXPECT_EQ(tr.group_size(2), 4);
  EXPECT_EQ(tr.group_size(3), 2);
  EXPECT_EQ(tr.group_index(1, 5), 0);
  EXPECT_EQ(tr.group_index(2, 5), 2);   // second level-2 group
  EXPECT_EQ(tr.group_index(3, 5), 3 + 2);
  EXPECT_EQ(tr.group_base(3, 5), 4);
  EXPECT_EQ(tr.group_base(2, 5), 4);
  EXPECT_EQ(tr.group_base(1, 5), 0);
}

TEST(LevelTree, PadsToNextPowerOfTwo) {
  LevelTree tr(6);
  EXPECT_EQ(tr.padded(), 8);
  EXPECT_EQ(tr.levels(), 3);
}

TEST(ViewC, MergeKeepsFresherEntries) {
  ViewC a, b;
  a.retired = {0, 1, 0, 0};
  b.retired = {0, 0, 1, 0};
  a.point0 = 3;
  a.round0 = 10;
  b.point0 = 5;
  b.round0 = 20;
  a.point = {1, 2};
  a.round = {5, 9};
  b.point = {3, 0};
  b.round = {7, 2};
  a.merge(b);
  EXPECT_EQ(a.retired, (std::vector<std::uint8_t>{0, 1, 1, 0}));
  EXPECT_EQ(a.point0, 5);
  EXPECT_EQ(a.point[0], 3);  // b fresher
  EXPECT_EQ(a.point[1], 2);  // a fresher
  EXPECT_EQ(a.reduced(4), 5 - 1 + 2);
}

// Steps a hand-driven C process once: round `round`, stepped index `index`,
// no mail.  Returns the OrdinaryC it reported, or null.
std::shared_ptr<const Payload> step_alone(ProtocolCProcess& p, int self, const Round& round,
                                          std::uint64_t index) {
  const Action a = p.on_round(RoundContext{round, self, index}, InboxView());
  for (const Outgoing& o : a.sends)
    if (o.kind == MsgKind::kOrdinary) return o.payload;
  return nullptr;
}

TEST(ProtocolC, MergeOrdersStampsAcrossSenders) {
  // Naive C (no fault detection): a process works from its first active
  // step and reports every unit into the level-1 group, so two reports are
  // two steps.  t = 4, n = 4: process 3 takes over first, process 2 later.
  const DoAllConfig cfg{4, 4};
  const ProtocolCOptions naive{.batch_reports = false, .fault_detection = false};
  ProtocolCProcess early(cfg, 3, naive);
  ProtocolCProcess late(cfg, 2, naive);
  const Round early_at = early.next_wake(Round{0});
  const Round late_at = late.next_wake(Round{0});
  ASSERT_LT(early_at, late_at);

  // The early sender steps four times (units 1 and 2, each reported) at
  // stepped rounds 10..13; the late one twice (unit 1, reported) at 20 and
  // 21, knowing nothing of the first.  A per-process step count would stamp
  // the early sender's last report 4 and the late sender's 2 -- the wrong
  // order.
  std::shared_ptr<const Payload> from_early;
  Round r = early_at;
  for (std::uint64_t i = 10; i <= 13; ++i, r += 1)
    if (auto sent = step_alone(early, 3, r, i)) from_early = sent;
  std::shared_ptr<const Payload> from_late;
  r = late_at;
  for (std::uint64_t i = 20; i <= 21; ++i, r += 1)
    if (auto sent = step_alone(late, 2, r, i)) from_late = sent;
  ASSERT_NE(from_early, nullptr);
  ASSERT_NE(from_late, nullptr);
  const ViewC& ve = dynamic_cast<const OrdinaryC&>(*from_early).view;
  const ViewC& vl = dynamic_cast<const OrdinaryC&>(*from_late).view;
  EXPECT_EQ(ve.round0, 12u);
  EXPECT_EQ(ve.point0, 3);
  EXPECT_EQ(vl.round0, 20u);
  EXPECT_EQ(vl.point0, 2);
  ASSERT_NE(ve.point[0], vl.point[0]);  // level 1: one group, index 0

  // A passive receiver, process 0, gets both reports in one round, in
  // either delivery order, and keeps the later-stamped entries.
  for (bool late_first : {false, true}) {
    SCOPED_TRACE(late_first ? "late report first" : "early report first");
    ProtocolCProcess receiver(cfg, 0, naive);
    std::vector<DeliveryRecord> recs{
        DeliveryRecord{3, MsgKind::kOrdinary, 1, 0, from_early, Round{}},
        DeliveryRecord{2, MsgKind::kOrdinary, 1, 0, from_late, Round{}}};
    if (late_first) std::swap(recs[0], recs[1]);
    receiver.on_round(RoundContext{r, 0, 22}, InboxView(recs, 0, true));
    EXPECT_EQ(receiver.view().round0, 20u);
    EXPECT_EQ(receiver.view().point0, 2);
    EXPECT_EQ(receiver.view().round[0], 21u);
    EXPECT_EQ(receiver.view().point[0], vl.point[0]);
  }
}

TEST(ProtocolC, DeadlinesAreExponentiallySeparated) {
  DoAllConfig cfg{16, 8};
  ProtocolCProcess p(cfg, 3);
  // D(m) halves (roughly) as m grows; more knowledge = earlier takeover.
  Round prev = p.deadline_for(1);
  for (std::int64_t m = 2; m < cfg.n + cfg.t; ++m) {
    Round d = p.deadline_for(m);
    EXPECT_LT(d, prev) << "m=" << m;
    prev = d;
  }
  // Zero-knowledge deadlines order by id, highest first.
  ProtocolCProcess hi(cfg, 7);
  EXPECT_LT(hi.deadline_for(0), p.deadline_for(0));
}

TEST(ProtocolC, RejectsOversizedInstances) {
  EXPECT_THROW(ProtocolCProcess(DoAllConfig{1000, 64}, 0), std::invalid_argument);
}

TEST(ProtocolC, FailureFreeWorkIsNearOptimal) {
  DoAllConfig cfg{32, 8};
  RunResult r = run_do_all("C", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  // Process 0 does all n units.  Later deadline-driven activations may redo
  // the unreported tail (that inherent slack is the 2t term of Thm 3.8a),
  // but early units are never repeated.
  EXPECT_EQ(r.metrics.unit_multiplicity[0], 1u);
  EXPECT_GE(r.metrics.work_total, 32u);
  expect_theorem_3_8_bounds(cfg, r.metrics);
  // Every unit was reported: n ordinary messages at least.
  EXPECT_GE(r.metrics.messages_of(MsgKind::kOrdinary), 32u);
}

TEST(ProtocolC, RunsForExponentiallyManyRoundsButFewSteps) {
  DoAllConfig cfg{16, 4};
  RunResult r = run_do_all("C", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  // The last deadline-based activation happens at a round around
  // K * 2^(n+t-ish): astronomically large, yet simulated in few steps.
  EXPECT_GT(r.metrics.last_retire_round, BigUint::pow2(12));
  EXPECT_LT(r.metrics.stepped_rounds, 10'000u);
  // Exponential-time bound of Theorem 3.8(c): t*K*(n+t)*2^(n+t).
  Round limit = (Round{u(cfg.t)} * ProtocolCProcess(cfg, 0).contact_bound_k() *
                 u(cfg.n + cfg.t))
                << static_cast<unsigned>(cfg.n + cfg.t);
  EXPECT_LE(r.metrics.last_retire_round, limit);
}

TEST(ProtocolC, SingleProcessDegenerates) {
  DoAllConfig cfg{10, 1};
  RunResult r = run_do_all("C", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 10u);
  EXPECT_EQ(r.metrics.messages_total, 0u);
}

TEST(ProtocolC, PairOfProcessesWithCrash) {
  DoAllConfig cfg{8, 2};
  std::vector<ScheduledFaults::Entry> entries{{0, 5, CrashPlan{true, 0}}};
  RunResult r = run_do_all("C", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  expect_theorem_3_8_bounds(cfg, r.metrics);
}

TEST(ProtocolC, CascadeOfCrashesStaysWorkOptimal) {
  DoAllConfig cfg{32, 8};
  // Each active process dies after 3 units, crash completing the unit but
  // suppressing the report broadcast.
  RunResult r = run_do_all("C", cfg,
                           std::make_unique<WorkCascadeFaults>(3, cfg.t - 1, 0));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.crashes, u(cfg.t - 1));
  expect_theorem_3_8_bounds(cfg, r.metrics);
}

TEST(ProtocolC, FaultDetectionAvoidsReportingToTheDead) {
  DoAllConfig cfg{24, 8};
  // Crash processes 1..6 before they ever act; process 0 only discovers this
  // while doing fault detection... process 0 is active first, so instead
  // crash 0 after 1 unit and let 7's takeover exercise detection.
  std::vector<ScheduledFaults::Entry> entries;
  entries.push_back({0, 3, CrashPlan{true, 0}});
  RunResult r = run_do_all("C", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  expect_theorem_3_8_bounds(cfg, r.metrics);
  EXPECT_GT(r.metrics.messages_of(MsgKind::kPoll), 0u);
}

TEST(ProtocolCBatch, CutsMessagesBelowN) {
  DoAllConfig cfg{128, 4};
  RunResult base = run_do_all("C", cfg, std::make_unique<NoFaults>());
  RunResult batch = run_do_all("C_batch", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(base.ok()) << base.violation;
  ASSERT_TRUE(batch.ok()) << batch.violation;
  // Corollary 3.9: reporting every ceil(n/t) units removes the n term.
  EXPECT_GE(base.metrics.messages_total, 128u);
  EXPECT_LT(batch.metrics.messages_total, 64u);
  EXPECT_LE(batch.metrics.work_total, 2u * 128u + 3u * 4u);
}

TEST(NaiveC, SectionThreeCascadeRedoesQuadraticWork) {
  // The Section 3 scenario: every active process dies the moment it performs
  // the last unit, so its final report is lost.  Without fault detection the
  // tail keeps being redone and re-reported to dead processes (Theta(n+t^2));
  // Protocol C's pointer-guided polling discovers the dead and hands the
  // tail knowledge to a live process instead.
  DoAllConfig cfg{31, 32};  // n = t - 1, the paper's shape
  auto adversary = [&] { return std::make_unique<CrashOnUnitFaults>(cfg.n, cfg.t - 1); };
  RunResult naive = run_do_all("naive_C", cfg, adversary());
  RunResult smart = run_do_all("C", cfg, adversary());
  ASSERT_TRUE(naive.ok()) << naive.violation;
  ASSERT_TRUE(smart.ok()) << smart.violation;
  EXPECT_LE(smart.metrics.work_total, u(cfg.n) + 2 * u(cfg.t)) << "Thm 3.8a";
  // Naive work grows quadratically: well above C's linear bound.
  EXPECT_GT(naive.metrics.work_total, 3 * u(cfg.n) + 2 * u(cfg.t));
}

class ProtocolCSweep : public ::testing::TestWithParam<SweepCase> {};

std::unique_ptr<FaultInjector> make_faults(const SweepCase& c) {
  switch (c.fault_mode) {
    case 1:
      return std::make_unique<WorkCascadeFaults>(1, c.t - 1, 0);
    case 2:
      return std::make_unique<WorkCascadeFaults>(u(ceil_div(c.n, c.t)) + 1, c.t - 1, 1);
    case 3:
      return std::make_unique<RandomFaults>(0.05, c.t - 1, c.seed);
    default:
      return std::make_unique<NoFaults>();
  }
}

TEST_P(ProtocolCSweep, CompletesWithinTheorem38Bounds) {
  const SweepCase& c = GetParam();
  DoAllConfig cfg{c.n, c.t};
  RunResult r = run_do_all("C", cfg, make_faults(c));
  ASSERT_TRUE(r.ok()) << r.violation << " (" << cfg.to_string() << ")";
  expect_theorem_3_8_bounds(cfg, r.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolCSweep,
    ::testing::Values(
        SweepCase{16, 4, 0, 0}, SweepCase{16, 4, 1, 0}, SweepCase{16, 4, 2, 0},
        SweepCase{16, 4, 3, 1}, SweepCase{40, 8, 1, 0}, SweepCase{40, 8, 2, 0},
        SweepCase{40, 8, 3, 2}, SweepCase{64, 16, 1, 0}, SweepCase{64, 16, 3, 3},
        SweepCase{20, 6, 1, 0},   // padded t
        SweepCase{20, 6, 3, 4}, SweepCase{4, 8, 1, 0},  // n < t
        SweepCase{1, 4, 1, 0}, SweepCase{30, 5, 3, 5}, SweepCase{96, 32, 1, 0},
        SweepCase{96, 32, 3, 6}, SweepCase{50, 2, 1, 0}, SweepCase{50, 2, 3, 7},
        SweepCase{33, 7, 2, 0}, SweepCase{33, 7, 3, 8}));

class ProtocolCBatchSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ProtocolCBatchSweep, BatchVariantCompletes) {
  const SweepCase& c = GetParam();
  DoAllConfig cfg{c.n, c.t};
  RunResult r = run_do_all("C_batch", cfg, make_faults(c));
  ASSERT_TRUE(r.ok()) << r.violation << " (" << cfg.to_string() << ")";
  // Looser work bound: a takeover may redo up to a batch per group cycle.
  EXPECT_LE(r.metrics.work_total, 2 * u(std::max(cfg.n, (std::int64_t)cfg.t)) + 3 * u(cfg.t));
  EXPECT_LE(r.metrics.max_concurrent_workers, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolCBatchSweep,
    ::testing::Values(SweepCase{64, 4, 0, 0}, SweepCase{64, 4, 1, 0}, SweepCase{64, 4, 3, 1},
                      SweepCase{96, 8, 1, 0}, SweepCase{96, 8, 2, 0}, SweepCase{96, 8, 3, 2},
                      SweepCase{64, 16, 1, 0}, SweepCase{64, 16, 3, 3}, SweepCase{40, 6, 3, 4},
                      SweepCase{128, 32, 1, 0}));

class ProtocolCRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(ProtocolCRandom, RandomSchedulesAlwaysComplete) {
  DoAllConfig cfg{48, 12};
  RunResult r = run_do_all("C", cfg, std::make_unique<RandomFaults>(0.08, 11, GetParam()));
  ASSERT_TRUE(r.ok()) << r.violation;
  expect_theorem_3_8_bounds(cfg, r.metrics);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolCRandom, ::testing::Range(0u, 20u));

}  // namespace
}  // namespace dowork
