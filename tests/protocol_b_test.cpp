#include "protocols/protocol_b.h"

#include <gtest/gtest.h>

#include "core/runner.h"
#include "sweep_case.h"

namespace dowork {
namespace {

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

// Generalized Theorem 2.8 bounds with slack for the non-square / rounding
// generalization: work <= 3n' + t, messages <= 10ts + O(s^2), retirement by
// O(n + t) rounds.
void expect_theorem_2_8_bounds(const DoAllConfig& cfg, const RunMetrics& m) {
  const std::int64_t n_prime = std::max(cfg.n, static_cast<std::int64_t>(cfg.t));
  const std::int64_t s = int_sqrt_ceil(cfg.t);
  EXPECT_LE(m.work_total, 3 * u(n_prime) + u(cfg.t)) << "work bound";
  EXPECT_LE(m.messages_total, 10 * u(cfg.t) * u(s) + 10 * u(s) * u(s)) << "message bound";
  // Theorem 2.8(c): 3n + 8t; generalized slack ~ s*PTO for rounding.
  Round limit{3 * u(n_prime) + 14 * u(cfg.t) + 8 * u(s) + 64};
  EXPECT_LE(m.last_retire_round, limit) << "round bound (linear in n + t)";
  EXPECT_LE(m.max_concurrent_workers, 1u) << "single active process";
}

TEST(ProtocolB, TimeoutFunctionsMatchDefinitions) {
  DoAllConfig cfg{64, 16};  // s = 4, n/t = 4
  ProtocolBProcess p5(cfg, 5);
  EXPECT_EQ(p5.pto(), 6u);  // ceil(n/t) + 2
  // GTO(i) = s*ceil(n/t) + 3s + (s - ibar - 1)*PTO + 1
  EXPECT_EQ(p5.gto(0), 16u + 12u + 3u * 6u + 1u);
  EXPECT_EQ(p5.gto(3), 16u + 12u + 0u * 6u + 1u);
  // Same group (5 and 4 are both in group 1): DDB = PTO.
  EXPECT_EQ(p5.ddb(4), p5.pto());
  // Different group: GTO(i) + (gj - gi - 1) * GTO(0).
  ProtocolBProcess p13(cfg, 13);  // group 3
  EXPECT_EQ(p13.ddb(2), p13.gto(2) + 2u * p13.gto(0));
}

// A single ProtocolBProcess driven by hand, as the simulator would: called
// with its mail, or at next_wake() with an empty inbox.  t = 16, n = 64:
// groups {0..3} {4..7} {8..11} {12..15}, PTO = 6.
class BProcessFixture : public ::testing::Test {
 protected:
  const DoAllConfig cfg_{64, 16};

  // Delivers one checkpoint sent by `from` in round `sent` (received in
  // sent + 1, the round the call is made in).
  static Action receive(ProtocolBProcess& p, int self, int from,
                        std::shared_ptr<const Payload> payload, std::uint64_t sent) {
    const std::vector<DeliveryRecord> recs{
        DeliveryRecord{from, MsgKind::kCheckpoint, 1, self, std::move(payload), Round{sent}}};
    return p.on_round(RoundContext{Round{sent + 1}, self}, InboxView(recs, self, true));
  }

  struct Probe {
    int to;
    Round round;
  };
  // Runs the silent process wake by wake from `now` until it activates;
  // returns the go-aheads it sent and sets *activated to the round of its
  // first active step.
  static std::vector<Probe> run_silent(ProtocolBProcess& p, int self, Round now,
                                       Round* activated) {
    const std::vector<DeliveryRecord> none;
    std::vector<Probe> probes;
    for (int guard = 0; guard < 100; ++guard) {
      now = p.next_wake(now + Round{1});
      const Action a = p.on_round(RoundContext{now, self}, InboxView(none, self, false));
      bool probed = false;
      for (const Outgoing& o : a.sends) {
        if (o.kind != MsgKind::kGoAhead) continue;
        EXPECT_EQ(o.to.size(), 1u);
        probes.push_back(Probe{o.to.lowest(), now});
        probed = true;
      }
      if (!probed && (a.work.has_value() || !a.sends.empty() || a.terminate)) {
        *activated = now;
        return probes;
      }
    }
    ADD_FAILURE() << "process " << self << " never activated";
    return probes;
  }
};

TEST_F(BProcessFixture, WakeFollowsEachIngestedCheckpoint) {
  ProtocolBProcess p(cfg_, 7);
  // The fictitious (0, g_7) from process 0 at round 0 seeds the deadline.
  EXPECT_EQ(p.next_wake(Round{0}), Round{p.ddb(0)});
  // A group mate's partial checkpoint re-arms it to PTO after receipt.
  EXPECT_TRUE(receive(p, 7, 5, std::make_shared<Checkpoint>(6), 20).sends.empty());
  EXPECT_EQ(p.next_wake(Round{21}), Round{21 + p.ddb(5)});
  EXPECT_EQ(p.ddb(5), p.pto());
  // A lower group's direct full checkpoint re-arms it to DDB(7, 2).
  EXPECT_TRUE(receive(p, 7, 2, std::make_shared<Checkpoint>(8, 1), 24).sends.empty());
  EXPECT_EQ(p.next_wake(Round{25}), Round{25 + p.ddb(2)});
  EXPECT_EQ(p.ddb(2), p.gto(2));
  // And an echo from a group mate back to PTO.
  EXPECT_TRUE(receive(p, 7, 4, std::make_shared<Checkpoint>(8, 2), 30).sends.empty());
  EXPECT_EQ(p.next_wake(Round{31}), Round{31 + p.pto()});
}

TEST_F(BProcessFixture, GroupMateCheckpointProbesTheIdsAboveTheSender) {
  ProtocolBProcess p(cfg_, 7);
  receive(p, 7, 4, std::make_shared<Checkpoint>(6), 40);
  const Round deadline = Round{41 + p.pto()};
  Round activated;
  const std::vector<Probe> probes = run_silent(p, 7, Round{41}, &activated);
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(probes[0].to, 5);
  EXPECT_EQ(probes[0].round, deadline);
  EXPECT_EQ(probes[1].to, 6);
  EXPECT_EQ(probes[1].round, deadline + Round{p.pto()});
  // A further PTO of silence after the last probe, then it takes over.
  EXPECT_EQ(activated, deadline + Round{2 * p.pto()});
}

TEST_F(BProcessFixture, LowerGroupCheckpointProbesTheWholeGroupBelowSelf) {
  ProtocolBProcess p(cfg_, 7);
  receive(p, 7, 1, std::make_shared<Checkpoint>(4, 1), 50);
  const Round deadline = Round{51 + p.ddb(1)};
  Round activated;
  const std::vector<Probe> probes = run_silent(p, 7, Round{51}, &activated);
  ASSERT_EQ(probes.size(), 3u);
  for (std::size_t k = 0; k < probes.size(); ++k) {
    EXPECT_EQ(probes[k].to, 4 + static_cast<int>(k)) << k;
    EXPECT_EQ(probes[k].round, deadline + Round{p.pto() * k}) << k;
  }
  EXPECT_EQ(activated, deadline + Round{3 * p.pto()});
}

TEST_F(BProcessFixture, FirstOfItsGroupProbesNobody) {
  ProtocolBProcess p(cfg_, 8);
  receive(p, 8, 3, std::make_shared<Checkpoint>(4, 2), 60);
  Round activated;
  EXPECT_TRUE(run_silent(p, 8, Round{61}, &activated).empty());
  EXPECT_EQ(activated, Round{61 + p.ddb(3)});
}

TEST_F(BProcessFixture, ProcessZeroKeepsTheStartRound) {
  ProtocolBProcess p(cfg_, 0, Round{5});
  EXPECT_EQ(p.next_wake(Round{0}), Round{5});
  // A checkpoint does not re-arm process 0: it is active from the start.
  EXPECT_TRUE(receive(p, 0, 1, std::make_shared<Checkpoint>(1), 2).sends.empty());
  EXPECT_EQ(p.next_wake(Round{3}), Round{5});
  const std::vector<DeliveryRecord> none;
  // At the start round it takes over at once: nobody below it to probe.
  const Action a = p.on_round(RoundContext{Round{5}, 0}, InboxView(none, 0, false));
  ASSERT_FALSE(a.sends.empty());  // resuming: it completes the partial checkpoint (1)
  for (const Outgoing& o : a.sends) EXPECT_EQ(o.kind, MsgKind::kCheckpoint);
  EXPECT_EQ(p.next_wake(Round{5}), Round{5});  // active: acts every round
}

TEST(ProtocolB, FailureFreeMatchesProtocolA) {
  DoAllConfig cfg{64, 16};
  RunResult r = run_do_all("B", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 64u);
  EXPECT_EQ(r.metrics.work_by_proc[0], 64u);
  EXPECT_EQ(r.metrics.messages_of(MsgKind::kGoAhead), 0u);  // nobody probes
  EXPECT_LE(r.metrics.last_retire_round, Round{64u + 3u * 16u});
}

TEST(ProtocolB, SingleProcess) {
  DoAllConfig cfg{10, 1};
  RunResult r = run_do_all("B", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 10u);
  EXPECT_EQ(r.metrics.messages_total, 0u);
}

TEST(ProtocolB, GoAheadWakesLowerNumberedSurvivor) {
  DoAllConfig cfg{16, 4};  // groups {0,1}, {2,3}
  // Process 0 crashes after 1 unit, delivering nothing.  Process 1 should be
  // probed... actually process 1 times out on PTO and takes over directly
  // (same group).  For a cross-group probe, crash 0 and 1: process 2 times
  // out, probes nobody outside its group, and becomes active.  Here we
  // verify the run completes and somebody below the prober was reached via
  // go-aheads when applicable.
  std::vector<ScheduledFaults::Entry> entries{{0, 2, CrashPlan{false, 0}},
                                              {1, 2, CrashPlan{false, 0}}};
  RunResult r = run_do_all("B", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  expect_theorem_2_8_bounds(cfg, r.metrics);
}

TEST(ProtocolB, ProbeFindsAliveGroupMate) {
  DoAllConfig cfg{36, 9};  // s = 3, groups {0,1,2},{3,4,5},{6,7,8}
  // Kill 0 after its first chunk's full checkpoint reaches group 1 only
  // partially; then group-1 members sort out activation among themselves.
  // Concretely: crash 0 mid full checkpoint (prefix 1), crash 4 on its first
  // action.  Eventually 3 should become active via timeout or probe; run
  // must complete either way with one active at a time.
  std::vector<ScheduledFaults::Entry> entries{{0, 16, CrashPlan{false, 1}},
                                              {4, 1, CrashPlan{false, 0}}};
  RunResult r = run_do_all("B", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  expect_theorem_2_8_bounds(cfg, r.metrics);
}

TEST(ProtocolB, MuchFasterThanProtocolAUnderCascade) {
  DoAllConfig cfg{128, 64};
  auto cascade = [] {
    return std::make_unique<WorkCascadeFaults>(1, 63, /*deliver_prefix=*/0);
  };
  RunResult ra = run_do_all("A", cfg, cascade());
  RunResult rb = run_do_all("B", cfg, cascade());
  ASSERT_TRUE(ra.ok()) << ra.violation;
  ASSERT_TRUE(rb.ok()) << rb.violation;
  // A stalls on absolute deadlines DD(j) = j(n+3t); B's message-relative
  // timeouts finish in O(n + t).
  EXPECT_LT(rb.metrics.last_retire_round.to_u64_saturating() * 10,
            ra.metrics.last_retire_round.to_u64_saturating());
}

class ProtocolBSweep : public ::testing::TestWithParam<SweepCase> {};

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

TEST_P(ProtocolBSweep, CompletesWithinTheorem28Bounds) {
  const SweepCase& c = GetParam();
  DoAllConfig cfg{c.n, c.t};
  RunResult r = run_do_all("B", cfg, make_faults(c));
  ASSERT_TRUE(r.ok()) << r.violation << " (" << cfg.to_string() << ")";
  expect_theorem_2_8_bounds(cfg, r.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolBSweep,
    ::testing::Values(
        SweepCase{16, 4, 0, 0}, SweepCase{16, 4, 1, 0}, SweepCase{16, 4, 2, 0},
        SweepCase{16, 4, 3, 1}, SweepCase{100, 10, 1, 0}, SweepCase{100, 10, 2, 0},
        SweepCase{100, 10, 3, 2}, SweepCase{64, 16, 1, 0}, SweepCase{64, 16, 3, 3},
        SweepCase{50, 7, 1, 0}, SweepCase{50, 7, 3, 4}, SweepCase{8, 16, 1, 0},
        SweepCase{8, 16, 3, 5}, SweepCase{1, 4, 1, 0}, SweepCase{33, 11, 2, 0},
        SweepCase{33, 11, 3, 6}, SweepCase{256, 25, 1, 0}, SweepCase{256, 25, 3, 7},
        SweepCase{128, 2, 1, 0}, SweepCase{40, 3, 3, 8}, SweepCase{500, 36, 3, 9},
        SweepCase{81, 81, 1, 0}, SweepCase{81, 81, 3, 10}));

class ProtocolBRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(ProtocolBRandom, RandomCrashSchedulesAlwaysComplete) {
  DoAllConfig cfg{120, 12};
  RunResult r = run_do_all("B", cfg, std::make_unique<RandomFaults>(0.08, 11, GetParam()));
  ASSERT_TRUE(r.ok()) << r.violation;
  expect_theorem_2_8_bounds(cfg, r.metrics);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolBRandom, ::testing::Range(0u, 20u));

}  // namespace
}  // namespace dowork
