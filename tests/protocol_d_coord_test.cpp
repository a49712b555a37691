// Tests for the coordinator variant of Protocol D (Section 4, closing
// remark): 2(t-1) failure-free messages per agreement phase, reactive
// fallback to broadcast agreement when the coordinator dies.
#include "protocols/protocol_d_coord.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "bitset_printer.h"
#include "core/runner.h"
#include "sim/simulator.h"
#include "sweep_case.h"

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

// One agreement send and its sender's phase loop right after the round that
// sent it (no D_coord round both sends and ends its phase).
struct AudienceSend {
  int from;
  int phase;
  bool done;
  RecipientSet to;  // set-addressed, or a report's unicast
  DynBitset u, t;

  bool broadcast() const { return to.shared_bits() != nullptr; }
  // The audience's members as one bitset.
  DynBitset members() const {
    DynBitset b(t.size());
    to.mark_prefix(b, to.size());
    return b;
  }
};

class AudienceRecorder final : public IProcess {
 public:
  AudienceRecorder(std::unique_ptr<ProtocolDCoordProcess> inner, std::vector<AudienceSend>& out)
      : inner_(std::move(inner)), out_(out) {}

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    Action a = inner_->on_round(ctx, inbox);
    for (const Outgoing& o : a.sends)
      if (const auto* m = detail::payload_as<AgreeMsg>(o.payload.get()))
        out_.push_back(AudienceSend{ctx.self, m->phase, m->done, o.to, *inner_->loop().u(),
                                    *inner_->loop().t()});
    return a;
  }
  Round next_wake(const Round& now) const override { return inner_->next_wake(now); }

 private:
  std::unique_ptr<ProtocolDCoordProcess> inner_;
  std::vector<AudienceSend>& out_;
};

// Every agreement send of a serial run, in send order.
std::vector<AudienceSend> record_audiences(const DoAllConfig& cfg,
                                           std::vector<ScheduledFaults::Entry> entries) {
  std::vector<AudienceSend> sent;
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < cfg.t; ++i)
    procs.push_back(std::make_unique<AudienceRecorder>(
        std::make_unique<ProtocolDCoordProcess>(cfg, i), sent));
  Simulator::Options opts;
  opts.strict_one_op = true;
  opts.n_units = cfg.n;
  Simulator sim(std::move(procs), std::make_unique<ScheduledFaults>(std::move(entries)), opts);
  EXPECT_TRUE(sim.run().all_retired);
  return sent;
}

DynBitset without(DynBitset bits, int self) {
  bits.reset(static_cast<std::size_t>(self));
  return bits;
}

// D_coord's agreement sends go through the phase loop's one cached
// audience.  A sender that never falls back (the coordinator's final view,
// an adopter's re-broadcast) sends to T \ {self}; a fallback sender's
// broadcasts each go to u \ {self} and alias one bitset, its u, until its u
// drops a member.  Two coordinator deaths: mid final broadcast (T10's
// coordinator-dies row: the two adopters answer the fallback) and before it
// (no adopters: the fallback drops the silent coordinator).
TEST(ProtocolDCoord, AgreementSendsShareTheLoopsAudience) {
  struct Shape {
    DoAllConfig cfg;
    ScheduledFaults::Entry crash;
  };
  std::size_t finals = 0, rebroadcasts = 0, aliased = 0, rebuilt = 0;
  for (const Shape& shape : {Shape{{128, 8}, {0, 17, CrashPlan{false, 2}}},
                             Shape{{64, 8}, {0, 8, CrashPlan{true, 0}}}}) {
    const std::vector<AudienceSend> sent = record_audiences(shape.cfg, {shape.crash});
    std::set<std::pair<int, int>> fallback;  // (sender, phase)
    for (const AudienceSend& s : sent)
      if (s.broadcast() && !s.done) fallback.emplace(s.from, s.phase);
    std::map<std::pair<int, int>, const AudienceSend*> last;
    for (const AudienceSend& s : sent) {
      if (!s.broadcast()) continue;  // a report to the coordinator
      const std::pair<int, int> key{s.from, s.phase};
      if (!fallback.count(key)) {
        EXPECT_TRUE(s.done);
        EXPECT_EQ(s.members(), without(s.t, s.from)) << "from " << s.from;
        const bool coordinator = s.t.find_next(0) == static_cast<std::size_t>(s.from);
        ++(coordinator ? finals : rebroadcasts);
        continue;
      }
      EXPECT_EQ(s.members(), without(s.u, s.from)) << "from " << s.from;
      if (const AudienceSend* prev = last[key]) {
        const bool same_u = prev->u == s.u;
        EXPECT_EQ(prev->to.shared_bits() == s.to.shared_bits(), same_u) << "from " << s.from;
        ++(same_u ? aliased : rebuilt);
      }
      last[key] = &s;
    }
  }
  EXPECT_EQ(finals, 2u);        // the dying coordinator's, and a later phase's
  EXPECT_EQ(rebroadcasts, 2u);  // the first shape's adopters, processes 1 and 2
  EXPECT_GT(aliased, 0u);
  EXPECT_EQ(rebuilt, 7u);  // each survivor of the second shape drops process 0 once
}

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
