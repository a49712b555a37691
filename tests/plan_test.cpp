// Unit tests for the shared active-process plan builder (Figure 1's DoWork)
// used by Protocols A and B and by Protocol D's revert path.
#include <gtest/gtest.h>

#include "protocols/protocol_a.h"

namespace dowork {
namespace {

struct PlanSummary {
  std::int64_t work_units = 0;
  std::int64_t first_unit = -1, last_unit = -1;
  int broadcasts = 0;
  int messages = 0;
  std::vector<std::pair<int, int>> full_ckpts;  // (c, g) of CkptFull payloads
  std::vector<int> partial_ckpts;               // c of CkptPartial payloads
};

PlanSummary summarize(const std::deque<ActiveOp>& plan) {
  PlanSummary s;
  for (const ActiveOp& op : plan) {
    if (op.work) {
      ++s.work_units;
      if (s.first_unit < 0) s.first_unit = *op.work;
      s.last_unit = *op.work;
    } else {
      ++s.broadcasts;
      s.messages += static_cast<int>(op.recipients.size());
      if (const auto* f = dynamic_cast<const CkptFull*>(op.payload.get()))
        s.full_ckpts.emplace_back(f->c, f->g);
      else if (const auto* p = dynamic_cast<const CkptPartial*>(op.payload.get()))
        s.partial_ckpts.push_back(p->c);
    }
  }
  return s;
}

class PlanFixture : public ::testing::Test {
 protected:
  // t = 9 -> s = 3, groups {0,1,2},{3,4,5},{6,7,8}; n = 36 -> subchunks of 4.
  GroupLayout layout_ = GroupLayout::for_sqrt(9);
  WorkPartition part_ = WorkPartition::for_protocol_a(36, 9);
};

TEST_F(PlanFixture, FreshStartCoversEverythingInOrder) {
  LastCheckpoint fresh;  // fictitious
  auto plan = build_active_plan(layout_, part_, /*self=*/0, fresh, nullptr);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.work_units, 36);
  EXPECT_EQ(s.first_unit, 1);
  EXPECT_EQ(s.last_unit, 36);
  // 9 partial checkpoints (one per subchunk), full checkpoints after
  // subchunks 3, 6, 9.
  EXPECT_EQ(s.partial_ckpts, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  // Each full checkpoint from group 0: direct+echo for groups 1 and 2.
  EXPECT_EQ(s.full_ckpts,
            (std::vector<std::pair<int, int>>{{3, 1}, {3, 1}, {3, 2}, {3, 2},
                                              {6, 1}, {6, 1}, {6, 2}, {6, 2},
                                              {9, 1}, {9, 1}, {9, 2}, {9, 2}}));
}

TEST_F(PlanFixture, ResumeFromPartialCheckpointSkipsDoneWork) {
  // Process 4 heard (5) from process 3 (same group): resume at subchunk 6.
  LastCheckpoint last{5, std::nullopt, 3, Round{10}, false};
  auto plan = build_active_plan(layout_, part_, 4, last, nullptr);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.first_unit, 21);  // subchunk 6 starts at unit 21
  EXPECT_EQ(s.work_units, 16);  // units 21..36
  // It first completes the partial checkpoint of 5 to the rest of its group.
  EXPECT_EQ(s.partial_ckpts.front(), 5);
}

TEST_F(PlanFixture, ResumeFromChunkBoundaryPartialRedoesFullCheckpoint) {
  // (6) is a chunk boundary: the crashed process may have died mid full
  // checkpoint, so the taker redoes it from its own next group.
  LastCheckpoint last{6, std::nullopt, 3, Round{10}, false};
  auto plan = build_active_plan(layout_, part_, 4, last, nullptr);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.first_unit, 25);
  ASSERT_GE(s.full_ckpts.size(), 2u);
  EXPECT_EQ(s.full_ckpts[0], (std::pair<int, int>{6, 2}));  // resumes at group 2
}

TEST_F(PlanFixture, ResumeFromDirectFullCheckpoint) {
  // Process 4 (group 1) heard (3, 1) from process 0 (group 0): complete the
  // partial checkpoint of 3, then the full checkpoint from group 2.
  LastCheckpoint last{3, 1, 0, Round{5}, false};
  auto plan = build_active_plan(layout_, part_, 4, last, nullptr);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.partial_ckpts.front(), 3);
  EXPECT_EQ(s.full_ckpts.front(), (std::pair<int, int>{3, 2}));
  EXPECT_EQ(s.first_unit, 13);  // subchunk 4
}

TEST_F(PlanFixture, ResumeFromEchoContinuesAfterEchoedGroup) {
  // Process 1 (group 0) heard the echo (3, 1) from group mate 0: re-echo to
  // its own remainder, then continue the full checkpoint at group 2.
  LastCheckpoint last{3, 1, 0, Round{5}, false};
  auto plan = build_active_plan(layout_, part_, 1, last, nullptr);
  PlanSummary s = summarize(plan);
  ASSERT_FALSE(s.full_ckpts.empty());
  EXPECT_EQ(s.full_ckpts[0], (std::pair<int, int>{3, 1}));  // the re-echo
  EXPECT_EQ(s.full_ckpts[1], (std::pair<int, int>{3, 2}));
  EXPECT_EQ(s.first_unit, 13);
}

TEST_F(PlanFixture, TakeoverAtLastSubchunkOnlyFinishesCheckpointing) {
  LastCheckpoint last{9, 2, 0, Round{50}, false};  // direct full ckpt (9, 2) to group 2
  auto plan = build_active_plan(layout_, part_, 7, last, nullptr);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.work_units, 0);  // nothing left to do but informing
  EXPECT_GT(s.broadcasts, 0);
}

TEST_F(PlanFixture, LastGroupMemberSendsNoFullCheckpoints) {
  LastCheckpoint fresh;
  auto plan = build_active_plan(layout_, part_, /*self=*/8, fresh, nullptr);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.work_units, 36);
  EXPECT_TRUE(s.full_ckpts.empty());      // no higher group, no own remainder
  EXPECT_TRUE(s.partial_ckpts.empty());   // 8 is last in its group
  EXPECT_EQ(s.messages, 0);
}

TEST_F(PlanFixture, UnitMapRemapsWork) {
  std::vector<std::int64_t> map;
  for (std::int64_t u = 2; u <= 72; u += 2) map.push_back(u);  // 36 even units
  LastCheckpoint fresh;
  auto plan = build_active_plan(layout_, part_, 0, fresh, &map);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.work_units, 36);
  EXPECT_EQ(s.first_unit, 2);
  EXPECT_EQ(s.last_unit, 72);
}

TEST(PlanEdge, EmptySubchunksStillCheckpointed) {
  // n < t: subchunks may be empty but the checkpoint cadence survives.
  GroupLayout layout = GroupLayout::for_sqrt(9);
  WorkPartition part = WorkPartition::for_protocol_a(4, 9);
  LastCheckpoint fresh;
  auto plan = build_active_plan(layout, part, 0, fresh, nullptr);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.work_units, 4);
  EXPECT_EQ(s.partial_ckpts.size(), 9u);  // one per subchunk, even empty ones
}

TEST(CompletionNotice, RecognizesOnlyTrueCompletions) {
  GroupLayout layout = GroupLayout::for_sqrt(9);
  WorkPartition part = WorkPartition::for_protocol_a(36, 9);
  auto rec_partial = [&](int c) {
    DeliveryRecord r;
    r.from = 0;
    r.payload = std::make_shared<CkptPartial>(c);
    return r;
  };
  auto rec_full = [&](int c, int g) {
    DeliveryRecord r;
    r.from = 0;
    r.payload = std::make_shared<CkptFull>(c, g);
    return r;
  };
  // self = 4 is in group 1.
  EXPECT_TRUE(is_completion_notice(layout, part, 4, rec_partial(9)));
  EXPECT_FALSE(is_completion_notice(layout, part, 4, rec_partial(8)));
  EXPECT_TRUE(is_completion_notice(layout, part, 4, rec_full(9, 1)));
  EXPECT_FALSE(is_completion_notice(layout, part, 4, rec_full(9, 2)));  // echo form
  EXPECT_FALSE(is_completion_notice(layout, part, 4, rec_full(3, 1)));
}

}  // namespace
}  // namespace dowork
