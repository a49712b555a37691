// Unit tests for the shared active-process plan builder (Figure 1's DoWork)
// and the checkpoint core around it, used by Protocols A and B, asynchronous
// A and Protocol D's revert path.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

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
  LastCheckpoint fresh;  // nothing received
  auto plan = build_active_plan(layout_, part_, /*self=*/0, fresh);
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
  LastCheckpoint last{5, std::nullopt, 3, Round{10}};
  auto plan = build_active_plan(layout_, part_, 4, last);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.first_unit, 21);  // subchunk 6 starts at unit 21
  EXPECT_EQ(s.work_units, 16);  // units 21..36
  // It first completes the partial checkpoint of 5 to the rest of its group.
  EXPECT_EQ(s.partial_ckpts.front(), 5);
}

TEST_F(PlanFixture, ResumeFromChunkBoundaryPartialRedoesFullCheckpoint) {
  // (6) is a chunk boundary: the crashed process may have died mid full
  // checkpoint, so the taker redoes it from its own next group.
  LastCheckpoint last{6, std::nullopt, 3, Round{10}};
  auto plan = build_active_plan(layout_, part_, 4, last);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.first_unit, 25);
  ASSERT_GE(s.full_ckpts.size(), 2u);
  EXPECT_EQ(s.full_ckpts[0], (std::pair<int, int>{6, 2}));  // resumes at group 2
}

TEST_F(PlanFixture, ResumeFromDirectFullCheckpoint) {
  // Process 4 (group 1) heard (3, 1) from process 0 (group 0): complete the
  // partial checkpoint of 3, then the full checkpoint from group 2.
  LastCheckpoint last{3, 1, 0, Round{5}};
  auto plan = build_active_plan(layout_, part_, 4, last);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.partial_ckpts.front(), 3);
  EXPECT_EQ(s.full_ckpts.front(), (std::pair<int, int>{3, 2}));
  EXPECT_EQ(s.first_unit, 13);  // subchunk 4
}

TEST_F(PlanFixture, ResumeFromEchoContinuesAfterEchoedGroup) {
  // Process 1 (group 0) heard the echo (3, 1) from group mate 0: re-echo to
  // its own remainder, then continue the full checkpoint at group 2.
  LastCheckpoint last{3, 1, 0, Round{5}};
  auto plan = build_active_plan(layout_, part_, 1, last);
  PlanSummary s = summarize(plan);
  ASSERT_FALSE(s.full_ckpts.empty());
  EXPECT_EQ(s.full_ckpts[0], (std::pair<int, int>{3, 1}));  // the re-echo
  EXPECT_EQ(s.full_ckpts[1], (std::pair<int, int>{3, 2}));
  EXPECT_EQ(s.first_unit, 13);
}

TEST_F(PlanFixture, TakeoverAtLastSubchunkOnlyFinishesCheckpointing) {
  LastCheckpoint last{9, 2, 0, Round{50}};  // direct full ckpt (9, 2) to group 2
  auto plan = build_active_plan(layout_, part_, 7, last);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.work_units, 0);  // nothing left to do but informing
  EXPECT_GT(s.broadcasts, 0);
}

TEST_F(PlanFixture, LastGroupMemberSendsNoFullCheckpoints) {
  LastCheckpoint fresh;
  auto plan = build_active_plan(layout_, part_, /*self=*/8, fresh);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.work_units, 36);
  EXPECT_TRUE(s.full_ckpts.empty());      // no higher group, no own remainder
  EXPECT_TRUE(s.partial_ckpts.empty());   // 8 is last in its group
  EXPECT_EQ(s.messages, 0);
}

TEST(PlanEdge, EmptySubchunksStillCheckpointed) {
  // n < t: subchunks may be empty but the checkpoint cadence survives.
  GroupLayout layout = GroupLayout::for_sqrt(9);
  WorkPartition part = WorkPartition::for_protocol_a(4, 9);
  LastCheckpoint fresh;
  auto plan = build_active_plan(layout, part, 0, fresh);
  PlanSummary s = summarize(plan);
  EXPECT_EQ(s.work_units, 4);
  EXPECT_EQ(s.partial_ckpts.size(), 9u);  // one per subchunk, even empty ones
}

// --- Resume equivalence: the lazy script against Figure 1, transcribed ----

// One op of a script, flattened for comparison: a unit, or a partial or full
// checkpoint (c, g) broadcast to the ids [lo, hi).
struct FlatOp {
  enum Kind : std::uint8_t { kUnit, kPartial, kFull } kind;
  std::int64_t value;  // the unit, or c
  int g = -1;
  int lo = 0, hi = 0;
  bool operator==(const FlatOp&) const = default;
};

std::ostream& operator<<(std::ostream& os, const FlatOp& op) {
  return os << "{" << int{op.kind} << "," << op.value << "," << op.g << ",[" << op.lo << ","
            << op.hi << ")}";
}

std::vector<FlatOp> flatten(const std::deque<ActiveOp>& plan) {
  std::vector<FlatOp> out;
  for (const ActiveOp& op : plan) {
    if (op.work) {
      out.push_back({FlatOp::kUnit, *op.work});
    } else if (const auto* f = dynamic_cast<const CkptFull*>(op.payload.get())) {
      out.push_back({FlatOp::kFull, f->c, f->g, op.recipients.first, op.recipients.end});
    } else {
      const auto& p = dynamic_cast<const CkptPartial&>(*op.payload);
      out.push_back({FlatOp::kPartial, p.c, -1, op.recipients.first, op.recipients.end});
    }
  }
  return out;
}

// Figure 1's DoWork for process `self` holding `last`, eagerly: lines 1-9
// finish the interrupted checkpoint, lines 10-14 do the rest.  Empty
// broadcasts are skipped, as the paper charges no round for them.
std::vector<FlatOp> figure1_dowork(const GroupLayout& layout, const WorkPartition& part,
                                   int self, const LastCheckpoint& last) {
  const int gj = layout.group_of(self);
  const int rest_lo = std::max(layout.first_of_group(gj), self + 1);
  const int rest_hi = layout.end_of_group(gj);
  std::vector<FlatOp> out;
  auto send = [&](FlatOp::Kind kind, int c, int g, int lo, int hi) {
    if (lo < hi) out.push_back({kind, c, g, lo, hi});
  };
  auto partial = [&](int c) { send(FlatOp::kPartial, c, -1, rest_lo, rest_hi); };
  auto full = [&](int c, int from_g) {
    for (int g = from_g; g < layout.num_groups(); ++g) {
      send(FlatOp::kFull, c, g, layout.first_of_group(g), layout.end_of_group(g));
      send(FlatOp::kFull, c, g, rest_lo, rest_hi);
    }
  };
  if (last.c > 0) {
    if (last.g && layout.group_of(last.from) == gj) {  // echo (c, g) from a group mate
      send(FlatOp::kFull, last.c, *last.g, rest_lo, rest_hi);
      full(last.c, *last.g + 1);
    } else if (last.g) {  // direct (c, g_j) from an earlier group
      partial(last.c);
      full(last.c, gj + 1);
    } else {  // partial (c)
      partial(last.c);
      if (part.is_chunk_boundary(last.c)) full(last.c, gj + 1);
    }
  }
  for (int c = last.c + 1; c <= part.num_subchunks(); ++c) {
    for (std::int64_t u = part.sub_begin(c); u <= part.sub_end(c); ++u)
      out.push_back({FlatOp::kUnit, u});
    partial(c);
    if (part.is_chunk_boundary(c)) full(c, gj + 1);
  }
  return out;
}

TEST(ResumeEquivalence, EveryEntryStateMatchesFigureOne) {
  int scripts = 0;
  for (int t : {1, 2, 3, 4, 5, 9, 10, 16, 17}) {
    for (std::int64_t n : {std::int64_t{1}, std::int64_t{t} - 1, std::int64_t{t},
                           3 * std::int64_t{t} + 2}) {
      if (n < 1) continue;
      const GroupLayout layout = GroupLayout::for_sqrt(t);
      const WorkPartition part = WorkPartition::for_protocol_a(n, t);
      for (int self = 0; self < t; ++self) {
        const int gj = layout.group_of(self);
        // Every checkpoint `self` can hold: nothing received; each partial
        // c (its sender does not steer the script); at each chunk
        // boundary, each direct (c, g_j) from an earlier group and each
        // echo (c, g > g_j) from a group mate.
        std::vector<LastCheckpoint> held{LastCheckpoint{0, gj, 0, Round{0}}};
        for (int c = 1; c <= part.num_subchunks(); ++c) {
          held.push_back(LastCheckpoint{c, std::nullopt, layout.first_of_group(gj), Round{1}});
          if (!part.is_chunk_boundary(c)) continue;
          for (int from = 0; from < layout.first_of_group(gj); ++from)
            held.push_back(LastCheckpoint{c, gj, from, Round{1}});
          for (int from = layout.first_of_group(gj); from < layout.end_of_group(gj); ++from) {
            if (from == self) continue;
            for (int g = gj + 1; g < layout.num_groups(); ++g)
              held.push_back(LastCheckpoint{c, g, from, Round{1}});
          }
        }
        for (const LastCheckpoint& last : held) {
          const std::vector<FlatOp> lazy = flatten(build_active_plan(layout, part, self, last));
          ASSERT_EQ(lazy, figure1_dowork(layout, part, self, last))
              << "n=" << n << " t=" << t << " self=" << self << " last=(" << last.c << ","
              << last.g.value_or(-1) << ") from " << last.from;
          // Every full checkpoint names a chunk boundary: the invariant
          // that makes the direct entry through the partial stage exact.
          for (const FlatOp& op : lazy)
            ASSERT_TRUE(op.kind != FlatOp::kFull || part.is_chunk_boundary(op.value));
          ++scripts;
        }
      }
    }
  }
  EXPECT_GT(scripts, 1000);
}

// --- CheckpointCore: the one checkpoint intake, step and progress rule ----

struct NotACheckpoint final : Payload {};

class CoreFixture : public ::testing::Test {
 protected:
  // Same shape as PlanFixture: t = 9 (groups of 3), n = 36 (subchunks of 4).
  const DoAllConfig cfg_{36, 9};
  const Round at_{7};
  bool take(CheckpointCore& core, std::shared_ptr<const Payload> p, int from) {
    return core.ingest(p.get(), from, at_);
  }
};

TEST_F(CoreFixture, StartsFromTheFictitiousMessage) {
  CheckpointCore core(cfg_, /*self=*/4, Round{3});
  EXPECT_EQ(core.last().c, 0);  // c = 0: nothing received
  EXPECT_EQ(core.last().g, 1);  // (0, g_self) from process 0
  EXPECT_EQ(core.last().from, 0);
  EXPECT_EQ(core.last().received_round, Round{3});
  EXPECT_FALSE(core.active());
  EXPECT_FALSE(core.done());
}

TEST_F(CoreFixture, IngestsPartialCheckpoint) {
  CheckpointCore core(cfg_, 4);
  EXPECT_TRUE(take(core, std::make_shared<CkptPartial>(5), 3));
  EXPECT_EQ(core.last().c, 5);
  EXPECT_FALSE(core.last().g.has_value());
  EXPECT_EQ(core.last().from, 3);
  EXPECT_EQ(core.last().received_round, at_);
  EXPECT_FALSE(core.completion_seen());
}

TEST_F(CoreFixture, IngestsDirectAndEchoFullCheckpoints) {
  CheckpointCore core(cfg_, 4);
  EXPECT_TRUE(take(core, std::make_shared<CkptFull>(3, 1), 0));  // direct, to group 1
  EXPECT_EQ(core.last().c, 3);
  EXPECT_EQ(core.last().g, 1);
  EXPECT_EQ(core.last().from, 0);
  EXPECT_TRUE(take(core, std::make_shared<CkptFull>(6, 2), 3));  // echo from a group mate
  EXPECT_EQ(core.last().c, 6);
  EXPECT_EQ(core.last().g, 2);
  EXPECT_EQ(core.last().from, 3);
  EXPECT_FALSE(core.completion_seen());
}

TEST_F(CoreFixture, NonCheckpointPayloadLeavesTheCoreAlone) {
  CheckpointCore core(cfg_, 4);
  ASSERT_TRUE(take(core, std::make_shared<CkptPartial>(2), 3));
  EXPECT_FALSE(take(core, std::make_shared<NotACheckpoint>(), 5));
  EXPECT_FALSE(core.ingest(nullptr, 5, at_));
  EXPECT_EQ(core.last().c, 2);
  EXPECT_EQ(core.last().from, 3);
  EXPECT_FALSE(core.completion_seen());
}

TEST(CompletionNotice, RecognizesOnlyTrueCompletions) {
  // self = 4 is in group 1; the last subchunk is 9.
  const DoAllConfig cfg{36, 9};
  auto completes = [&](std::shared_ptr<const Payload> p) {
    CheckpointCore core(cfg, 4);
    core.ingest(p.get(), 0, Round{1});
    return core.completion_seen();
  };
  EXPECT_TRUE(completes(std::make_shared<CkptPartial>(9)));
  EXPECT_FALSE(completes(std::make_shared<CkptPartial>(8)));
  EXPECT_TRUE(completes(std::make_shared<CkptFull>(9, 1)));
  EXPECT_FALSE(completes(std::make_shared<CkptFull>(9, 2)));  // echo form
  EXPECT_FALSE(completes(std::make_shared<CkptFull>(3, 1)));
}

TEST(CompletionNotice, IsStickyAcrossLaterCheckpoints) {
  CheckpointCore core(DoAllConfig{36, 9}, 4);
  core.ingest(std::make_shared<CkptPartial>(9).get(), 3, Round{1});
  core.ingest(std::make_shared<CkptPartial>(2).get(), 3, Round{2});
  EXPECT_TRUE(core.completion_seen());
  EXPECT_EQ(core.last().c, 2);  // the last checkpoint is still the latest heard
}

TEST_F(CoreFixture, KnownDoneUnitsFollowsCheckpointsAndWork) {
  CheckpointCore core(cfg_, 4);
  EXPECT_EQ(core.known_done_units(), 0);
  take(core, std::make_shared<CkptPartial>(2), 3);
  EXPECT_EQ(core.known_done_units(), 8);  // subchunks 1..2 of 4 units
  core.activate();
  // Resume: the partial checkpoint of 2 to process 5, then unit 9.
  EXPECT_FALSE(core.step().work.has_value());
  EXPECT_EQ(core.step().work, 9);
  EXPECT_EQ(core.known_done_units(), 9);
}

TEST_F(CoreFixture, KnownDoneUnitsClampsAtTheLastSubchunk) {
  CheckpointCore core(cfg_, 4);
  take(core, std::make_shared<CkptPartial>(12), 3);  // past t = 9 subchunks
  EXPECT_EQ(core.known_done_units(), 36);
}

TEST_F(CoreFixture, StepTerminatesOnExactlyTheDrainingOp) {
  // The core's ops are the plan's ops, one per step, and only the last
  // step carries terminate.
  LastCheckpoint fresh;
  const GroupLayout layout = GroupLayout::for_sqrt(cfg_.t);
  const WorkPartition part = WorkPartition::for_protocol_a(cfg_.n, cfg_.t);
  const std::size_t ops = build_active_plan(layout, part, 4, fresh).size();
  ASSERT_GT(ops, 1u);
  CheckpointCore core(cfg_, 4);
  core.activate();
  std::int64_t last_unit = 0;
  for (std::size_t i = 1; i <= ops; ++i) {
    ASSERT_TRUE(core.active()) << "op " << i;
    const Action a = core.step();
    EXPECT_TRUE(a.work.has_value() || !a.sends.empty()) << "op " << i;
    EXPECT_EQ(a.terminate, i == ops) << "op " << i;
    if (a.work) last_unit = *a.work;
  }
  EXPECT_TRUE(core.done());
  // The draining step freed the plan; the core still knows what it did.
  EXPECT_EQ(last_unit, cfg_.n);
  EXPECT_EQ(core.known_done_units(), last_unit);
}

TEST_F(CoreFixture, EmptyResumedScriptTerminatesAtOnce) {
  // Process 8 is last in the last group: an echo (9, 2) leaves it nothing to
  // inform and no work, so its first step only terminates.
  CheckpointCore core(cfg_, 8);
  take(core, std::make_shared<CkptFull>(9, 2), 7);
  core.activate();
  const Action a = core.step();
  EXPECT_TRUE(a.terminate);
  EXPECT_FALSE(a.work.has_value());
  EXPECT_TRUE(a.sends.empty());
  EXPECT_TRUE(core.done());
}

TEST_F(CoreFixture, RetireEndsThePassiveCore) {
  CheckpointCore core(cfg_, 4);
  EXPECT_TRUE(core.retire().terminate);
  EXPECT_TRUE(core.done());
  EXPECT_FALSE(core.active());
}

}  // namespace
}  // namespace dowork
