// Tests for the shared-memory substrate and the Section 1.1 Write-All
// counter algorithm: shared memory makes Do-All easy (effort 2n + O(t))
// because progress state survives crashes.
#include <gtest/gtest.h>

#include "sharedmem/write_all.h"

namespace dowork {
namespace {

TEST(SharedMemSim, ReadsSeeStartOfRoundWritesApplyAtEnd) {
  // Process 0 writes 7 to cell 0 in round 0; process 1 reads cell 0 in
  // round 0 (sees 0) and again in round 1 (sees 7).
  class Writer final : public ISharedProcess {
   public:
    SharedOp on_round(std::uint64_t round, std::optional<std::int64_t>) override {
      if (round == 0) return SharedOp::write(0, 7);
      return SharedOp::terminate();
    }
    std::uint64_t next_wake(std::uint64_t now) const override { return now; }
  };
  class Reader final : public ISharedProcess {
   public:
    SharedOp on_round(std::uint64_t round, std::optional<std::int64_t> last) override {
      if (last) values.push_back(*last);
      if (round <= 1) return SharedOp::read(0);
      return SharedOp::terminate();
    }
    std::uint64_t next_wake(std::uint64_t now) const override { return now; }
    std::vector<std::int64_t> values;
  };
  std::vector<std::unique_ptr<ISharedProcess>> procs;
  procs.push_back(std::make_unique<Writer>());
  auto reader = std::make_unique<Reader>();
  Reader* rd = reader.get();
  procs.push_back(std::move(reader));
  SharedMemSim::Options opts;
  opts.n_cells = 1;
  SharedMemSim sim(std::move(procs), opts);
  SharedMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(rd->values, (std::vector<std::int64_t>{0, 7}));
  EXPECT_EQ(m.reads, 2u);
  EXPECT_EQ(m.writes, 1u);
}

TEST(WriteAll, FailureFreeEffortIsTwoNPlusReads) {
  DoAllConfig cfg{50, 8};
  SharedMetrics m = run_write_all(cfg);
  EXPECT_TRUE(m.all_retired);
  EXPECT_TRUE(m.all_units_done());
  EXPECT_EQ(m.work_total, 50u);
  EXPECT_EQ(m.writes, 50u);
  EXPECT_EQ(m.reads, 8u);  // one counter read per process
  EXPECT_EQ(m.effort(), 2u * 50u + 8u);
}

TEST(WriteAll, EachCrashCostsAtMostOneRedoneUnit) {
  DoAllConfig cfg{40, 6};
  std::vector<ScheduledFaults::Entry> crashes;
  // Crash each of processes 0..4 on its 9th op: mid work/write alternation.
  for (int p = 0; p < 5; ++p) crashes.push_back({p, 9, CrashPlan{false, 0}});
  SharedMetrics m = run_write_all(cfg, std::move(crashes));
  EXPECT_TRUE(m.all_units_done());
  EXPECT_EQ(m.crashes, 5u);
  // Work <= n + one redone unit per crash.
  EXPECT_LE(m.work_total, 40u + 5u);
  EXPECT_LE(m.effort(), 2u * (40u + 5u) + 6u + 5u);
}

TEST(WriteAll, CrashBetweenWorkAndWriteRedoesExactlyThatUnit) {
  DoAllConfig cfg{10, 2};
  // Process 0: read(op1), work(op2), write(op3), work(op4)... crash on op4
  // (a work op whose write-back never happens).
  SharedMetrics m = run_write_all(cfg, {{0, 4, CrashPlan{true, 0}}});
  EXPECT_TRUE(m.all_units_done());
  EXPECT_EQ(m.unit_multiplicity[1], 2u);  // unit 2 done twice
  EXPECT_EQ(m.unit_multiplicity[0], 1u);
  EXPECT_EQ(m.work_total, 11u);
}

TEST(WriteAll, SurvivorFinishesWhenEveryoneElseDiesInstantly) {
  DoAllConfig cfg{25, 5};
  std::vector<ScheduledFaults::Entry> crashes;
  for (int p = 0; p < 4; ++p) crashes.push_back({p, 1, CrashPlan{false, 0}});
  SharedMetrics m = run_write_all(cfg, std::move(crashes));
  EXPECT_TRUE(m.all_units_done());
  EXPECT_EQ(m.crashes, 4u);
}

TEST(WriteAll, TimeIsOrderNT) {
  DoAllConfig cfg{30, 4};
  std::vector<ScheduledFaults::Entry> crashes;
  for (int p = 0; p < 3; ++p) crashes.push_back({p, 7, CrashPlan{true, 0}});
  SharedMetrics m = run_write_all(cfg, std::move(crashes));
  EXPECT_TRUE(m.all_units_done());
  // Deadline-staggered: last retire within t * (2n + 4) + 2n rounds.
  EXPECT_LE(m.last_round, 4u * (2u * 30u + 4u) + 2u * 30u + 4u);
}

// The paper's comparison: the same adversary pattern costs the
// message-passing Protocol A checkpoint waves, while shared memory gets
// away with the 2n+O(t) counter discipline.
TEST(WriteAll, SharedMemoryEffortBeatsMessagePassing) {
  DoAllConfig cfg{128, 16};
  std::vector<ScheduledFaults::Entry> crashes;
  for (int p = 0; p < 15; ++p) crashes.push_back({p, 17, CrashPlan{true, 0}});
  SharedMetrics shared = run_write_all(cfg, std::move(crashes));
  EXPECT_TRUE(shared.all_units_done());
  EXPECT_LE(shared.effort(), 2u * (128u + 15u) + 16u + 15u);
}

}  // namespace
}  // namespace dowork
