// Tests for util/: the table printer, number formatting, the seeded RNG and
// the bitset's subset test, range operations, counting kernels and the
// popcount a shared set stores.
#include <gtest/gtest.h>

#include <vector>

#include "util/bitset.h"
#include "util/rng.h"
#include "util/strings.h"

namespace dowork {
namespace {

TEST(TablePrinter, AlignsColumnsAndPadsShortRows) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "23,456"});
  t.add_row({"only-one-cell"});
  std::string out = t.render();
  EXPECT_NE(out.find("| name          | value  |"), std::string::npos);
  EXPECT_NE(out.find("| longer-name   | 23,456 |"), std::string::npos);
  EXPECT_NE(out.find("| only-one-cell |        |"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TablePrinter, TruncatesOverlongRows) {
  TablePrinter t({"a"});
  t.add_row({"1", "spillover"});
  // The extra cell is dropped by resize; rendering must not crash.
  std::string out = t.render();
  EXPECT_EQ(out.find("spillover"), std::string::npos);
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(18446744073709551615ull), "18,446,744,073,709,551,615");
}

TEST(Strings, Ratio) {
  EXPECT_EQ(ratio(1.0), "1.00x");
  EXPECT_EQ(ratio(12.345), "12.35x");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, SubsetMaskSized) {
  Rng r(7);
  EXPECT_EQ(r.subset_mask(13).size(), 13u);
  EXPECT_TRUE(r.subset_mask(0).empty());
}

TEST(Rng, ShufflePermutes) {
  Rng r(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // Same construction replayed gives the same child stream.
  Rng b(55);
  Rng child2 = b.fork();
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(child.uniform(0, 1 << 30), child2.uniform(0, 1 << 30));
}

TEST(DynBitset, IsSubsetOf) {
  // 70 bits: one full word and a ragged 6-bit tail word.
  auto bits = [](std::initializer_list<std::size_t> on) {
    DynBitset b(70);
    for (std::size_t i : on) b.set(i);
    return b;
  };
  const DynBitset a = bits({0, 63, 64, 69});
  EXPECT_TRUE(a.is_subset_of(a));  // equal sets
  EXPECT_TRUE(a.is_subset_of(bits({0, 63, 64, 69})));
  EXPECT_TRUE(bits({63, 69}).is_subset_of(a));  // strict subset
  EXPECT_FALSE(a.is_subset_of(bits({63, 69})));
  EXPECT_FALSE(bits({1}).is_subset_of(a));  // a non-subset, in the full word
  EXPECT_FALSE(bits({68}).is_subset_of(a));  // ... and in the tail word
  EXPECT_TRUE(DynBitset(70).is_subset_of(a));
  EXPECT_TRUE(DynBitset(70, true).is_subset_of(DynBitset(70, true)));
  EXPECT_FALSE(DynBitset(70, true).is_subset_of(a));
}

// count_range / reset_range / word_without against a bit-by-bit reference
// over every range that matters: empty, inside one word, across bits 63/64,
// ending at size(), and over a ragged 70-bit tail.
TEST(DynBitset, RangeOpsMatchBitByBit) {
  DynBitset full(200);
  for (std::size_t i = 0; i < 200; i += 3) full.set(i);
  full.set(63);
  full.set(64);
  DynBitset ragged(70, true);
  ragged.reset(65);
  struct Case {
    const DynBitset* b;
    std::size_t lo, hi;
  };
  const std::vector<Case> cases = {
      {&full, 0, 0},    {&full, 17, 17},  {&full, 200, 200},  // empty
      {&full, 3, 40},   {&full, 64, 70},                      // inside one word
      {&full, 60, 64},  {&full, 63, 65},  {&full, 64, 128},   // at the 63/64 edge
      {&full, 10, 150}, {&full, 0, 200},  {&full, 150, 200},  // spanning, to size()
      {&ragged, 0, 70}, {&ragged, 60, 70}, {&ragged, 64, 70}, {&ragged, 66, 69},
  };
  for (const Case& c : cases) {
    const DynBitset& b = *c.b;
    std::uint64_t want = 0;
    DynBitset cleared = b;
    for (std::size_t i = c.lo; i < c.hi; ++i) {
      want += b.test(i) ? 1 : 0;
      cleared.reset(i);
    }
    SCOPED_TRACE(::testing::Message() << "[" << c.lo << ", " << c.hi << ") of " << b.size());
    EXPECT_EQ(b.count_range(c.lo, c.hi), want);
    DynBitset got = b;
    got.reset_range(c.lo, c.hi);
    EXPECT_EQ(got, cleared);
    for (std::size_t w = 0; w < b.word_count(); ++w)
      EXPECT_EQ(b.word_without(w, c.lo, c.hi), cleared.word(w)) << "word " << w;
  }
  EXPECT_EQ(full.count_range(0, 200), full.count());
  EXPECT_EQ(ragged.count_range(0, 70), 69u);
}

// The counting kernels (count, count_prefix, count_range, select) against a
// bit-by-bit reference, at sizes around the word edges and one long ragged
// size, each empty, full and seeded-random.  Whichever ISA clone the loader
// picks must agree with the reference bit for bit.
TEST(DynBitset, CountSelectMatchBitByBit) {
  for (std::size_t n : {0, 1, 63, 64, 65, 128, 129, 4103}) {
    Rng rng(n);
    DynBitset random(n);
    for (std::size_t i = 0; i < n; ++i)
      if (rng.chance(0.5)) random.set(i);
    for (const DynBitset& b : {DynBitset(n), DynBitset(n, true), random}) {
      SCOPED_TRACE(::testing::Message() << "size " << n << ", " << b.count() << " set");
      std::vector<std::uint64_t> prefix{0};  // prefix[k]: set bits below k
      std::vector<std::size_t> ones;         // positions of the set bits
      for (std::size_t i = 0; i < n; ++i) {
        prefix.push_back(prefix.back() + (b.test(i) ? 1 : 0));
        if (b.test(i)) ones.push_back(i);
      }
      EXPECT_EQ(b.count(), ones.size());
      for (std::size_t k = 0; k <= n; ++k) ASSERT_EQ(b.count_prefix(k), prefix[k]) << "k " << k;
      // Every range between two word-edge positions (and the ends).
      std::vector<std::size_t> edges;
      for (std::size_t e : std::vector<std::size_t>{0, 1, 62, 63, 64, 65, 127, 128, 129, n / 2,
                                                    n - 1, n})
        if (e <= n) edges.push_back(e);  // n - 1 wraps past n when n is 0
      for (std::size_t lo : edges) {
        for (std::size_t hi : edges) {
          if (lo > hi) continue;
          ASSERT_EQ(b.count_range(lo, hi), prefix[hi] - prefix[lo])
              << "[" << lo << ", " << hi << ")";
        }
      }
      for (std::size_t k = 0; k < ones.size(); ++k) ASSERT_EQ(b.select(k), ones[k]) << "k " << k;
      EXPECT_EQ(b.select(ones.size()), n);
      EXPECT_EQ(b.select(ones.size() + 64), n);
    }
  }
}

std::uint64_t count_bit_by_bit(const DynBitset& b) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < b.size(); ++i) c += b.test(i) ? 1 : 0;
  return c;
}

void expect_counts(const DynBitset& b, const char* what) {
  const std::uint64_t ref = count_bit_by_bit(b);
  EXPECT_EQ(b.count(), ref) << what;
  EXPECT_EQ(b.none(), ref == 0) << what;
  EXPECT_EQ(b.any(), ref != 0) << what;
}

// share_bits stores the popcount in the set it seals; count/none/any read
// it.  A copy of a sealed set is mutable, so it must count its own bits
// after every mutator, never report the sealed value.
TEST(DynBitset, SharedCountMatchesBitByBitAndCopiesRecount) {
  for (std::size_t n : {0, 1, 63, 64, 65, 4103}) {
    Rng rng(n + 7);
    DynBitset random(n), other(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.chance(0.5)) random.set(i);
      if (rng.chance(0.5)) other.set(i);
    }
    for (const DynBitset& b : {DynBitset(n), DynBitset(n, true), random}) {
      SCOPED_TRACE(::testing::Message() << "size " << n << ", " << count_bit_by_bit(b) << " set");
      const SharedBits shared = share_bits(b);
      expect_counts(*shared, "sealed");
      EXPECT_EQ(*shared, b);  // the stored count is no part of the value
      const auto mutated = [&](const char* what, auto&& mutate) {
        DynBitset copy = *shared;
        mutate(copy);
        expect_counts(copy, what);
        DynBitset assigned(n);
        assigned = *shared;
        mutate(assigned);
        expect_counts(assigned, what);
        expect_counts(*share_bits(copy), what);
      };
      mutated("unchanged copy", [](DynBitset&) {});
      mutated("reset_all", [](DynBitset& c) { c.reset_all(); });
      mutated("&=", [&](DynBitset& c) { c &= other; });
      mutated("|=", [&](DynBitset& c) { c |= other; });
      mutated("reset_range", [&](DynBitset& c) { c.reset_range(n / 3, n - n / 4); });
      if (n == 0) continue;
      for (std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
        mutated("set", [i](DynBitset& c) { c.set(i); });
        mutated("reset", [i](DynBitset& c) { c.reset(i); });
      }
      mutated("assign_word", [](DynBitset& c) { c.assign_word(0, 0x5); });
      mutated("assign_word tail", [](DynBitset& c) {
        c.assign_word(c.word_count() - 1, ~std::uint64_t{0});
      });
    }
  }
}

}  // namespace
}  // namespace dowork
