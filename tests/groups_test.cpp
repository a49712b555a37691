#include "protocols/groups.h"

#include <gtest/gtest.h>

#include <set>

namespace dowork {
namespace {

TEST(GroupLayout, PerfectSquare) {
  GroupLayout g = GroupLayout::for_sqrt(16);
  EXPECT_EQ(g.group_size(), 4);
  EXPECT_EQ(g.num_groups(), 4);
  EXPECT_EQ(g.group_of(0), 0);
  EXPECT_EQ(g.group_of(15), 3);
  EXPECT_EQ(g.pos_in_group(6), 2);
  EXPECT_EQ(g.members(1), (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(g.members_above(1, 5), (std::vector<int>{6, 7}));
  EXPECT_EQ(g.members_above(1, 7), (std::vector<int>{}));
}

TEST(GroupLayout, NonSquareHasShortLastGroup) {
  GroupLayout g = GroupLayout::for_sqrt(10);  // s = 4, groups of 4,4,2
  EXPECT_EQ(g.group_size(), 4);
  EXPECT_EQ(g.num_groups(), 3);
  EXPECT_EQ(g.members(2), (std::vector<int>{8, 9}));
  EXPECT_EQ(g.end_of_group(2), 10);
}

TEST(GroupLayout, SingleProcess) {
  GroupLayout g = GroupLayout::for_sqrt(1);
  EXPECT_EQ(g.num_groups(), 1);
  EXPECT_EQ(g.members(0), (std::vector<int>{0}));
  EXPECT_EQ(g.members_above(0, 0), (std::vector<int>{}));
}

class GroupLayoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(GroupLayoutSweep, GroupsPartitionTheProcesses) {
  int t = GetParam();
  GroupLayout g = GroupLayout::for_sqrt(t);
  std::set<int> seen;
  for (int grp = 0; grp < g.num_groups(); ++grp) {
    for (int m : g.members(grp)) {
      EXPECT_EQ(g.group_of(m), grp);
      EXPECT_TRUE(seen.insert(m).second) << "duplicate member " << m;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), t);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), t - 1);
  // Group size is ceil(sqrt(t)): s^2 >= t > (s-1)^2.
  int s = g.group_size();
  EXPECT_GE(s * s, t);
  if (s > 1) {
    EXPECT_LT((s - 1) * (s - 1), t);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSizes, GroupLayoutSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 16, 17, 25, 26, 36, 50,
                                           63, 64, 65, 100, 121, 128));

TEST(WorkPartition, EvenSplit) {
  WorkPartition p = WorkPartition::for_protocol_a(16, 4);  // 4 subchunks of 4
  EXPECT_EQ(p.num_subchunks(), 4);
  EXPECT_EQ(p.sub_begin(1), 1);
  EXPECT_EQ(p.sub_end(1), 4);
  EXPECT_EQ(p.sub_begin(4), 13);
  EXPECT_EQ(p.sub_end(4), 16);
}

TEST(WorkPartition, ChunkBoundaries) {
  WorkPartition p = WorkPartition::for_protocol_a(100, 9);  // s = 3
  EXPECT_FALSE(p.is_chunk_boundary(1));
  EXPECT_TRUE(p.is_chunk_boundary(3));
  EXPECT_TRUE(p.is_chunk_boundary(6));
  EXPECT_TRUE(p.is_chunk_boundary(9));  // final subchunk always a boundary
}

TEST(WorkPartition, FinalSubchunkIsBoundaryEvenWhenNotMultiple) {
  WorkPartition p = WorkPartition::for_protocol_a(100, 10);  // s = 4, 10 subchunks
  EXPECT_TRUE(p.is_chunk_boundary(4));
  EXPECT_TRUE(p.is_chunk_boundary(8));
  EXPECT_FALSE(p.is_chunk_boundary(9));
  EXPECT_TRUE(p.is_chunk_boundary(10));
}

struct PartitionCase {
  std::int64_t n;
  int t;
};

class PartitionSweep : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionSweep, SubchunksTileTheWorkExactly) {
  auto [n, t] = GetParam();
  WorkPartition p = WorkPartition::for_protocol_a(n, t);
  std::int64_t expected_next = 1;
  std::int64_t total = 0;
  for (int c = 1; c <= p.num_subchunks(); ++c) {
    std::int64_t b = p.sub_begin(c), e = p.sub_end(c);
    if (b > e) {  // empty subchunk (n < t)
      EXPECT_EQ(b, expected_next);
      continue;
    }
    EXPECT_EQ(b, expected_next);
    total += e - b + 1;
    expected_next = e + 1;
    // Sizes differ by at most one unit.
    EXPECT_LE(e - b + 1, ceil_div(n, t));
  }
  EXPECT_EQ(total, n);
  EXPECT_EQ(expected_next, n + 1);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PartitionSweep,
                         ::testing::Values(PartitionCase{16, 4}, PartitionCase{17, 4},
                                           PartitionCase{100, 7}, PartitionCase{5, 9},
                                           PartitionCase{1, 1}, PartitionCase{1, 16},
                                           PartitionCase{1000, 31}, PartitionCase{64, 64},
                                           PartitionCase{63, 64}, PartitionCase{65, 64}));

}  // namespace
}  // namespace dowork
