// Promotion-boundary tests for the two-tier Round (util/round.h): exact
// arithmetic at 2^64 - 1 +- 1, automatic promotion/demotion, total ordering
// across representations, and preservation of BigUint's overflow semantics.
// The RoundBlock suites cover the reuse of promoted blocks: values under a
// random churn, blocks crossing threads, and the per-thread list's cap,
// counted through this binary's replacement global operator new/delete.
#include "util/round.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <new>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/process.h"

#if defined(__SANITIZE_ADDRESS__)
#define DOWORK_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DOWORK_TEST_ASAN 1
#endif
#endif

namespace {

// Calls into the replacement allocation functions below, over the whole
// binary; the tests read differences across regions that run only Round
// operations.  block_deletes counts sized deletes of one promoted block.
std::atomic<std::size_t> g_news{0};
std::atomic<std::size_t> g_block_deletes{0};

void* counted_new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t n) noexcept {
  if (n == sizeof(dowork::BigUint)) g_block_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dowork {
namespace {

constexpr std::uint64_t kMax = UINT64_MAX;  // 2^64 - 1

TEST(RoundPromotion, SizeStaysTwoWords) {
  // The point of the two-tier representation: a Round is pointer + word, so
  // the simulator's WakeEntry fits a third of a cache line instead of 72B.
  static_assert(sizeof(Round) == 16);
}

TEST(RoundPromotion, AddAcrossTheBoundaryIsExact) {
  Round r{kMax};
  EXPECT_TRUE(r.fits_u64());
  r += Round{1};
  EXPECT_FALSE(r.fits_u64());  // promoted at exactly 2^64
  EXPECT_EQ(r.to_string(), "18446744073709551616");
  EXPECT_EQ(r, Round::pow2(64));
  EXPECT_EQ(r.to_u64_saturating(), kMax);  // saturates like BigUint did

  // The carry is exact, not saturating: (2^64-1) + (2^64-1) = 2^65 - 2.
  Round s = Round{kMax} + Round{kMax};
  EXPECT_EQ(s.to_string(), "36893488147419103230");
  EXPECT_EQ(s, (BigUint{kMax} + BigUint{kMax}));
}

TEST(RoundPromotion, SubtractionDemotesBackBelowTheBoundary) {
  Round r = Round::pow2(64);  // promoted
  r -= Round{1};
  EXPECT_TRUE(r.fits_u64());  // demoted: representation is canonical
  EXPECT_EQ(r.to_u64_saturating(), kMax);
  EXPECT_EQ(r, Round{kMax});

  // Underflow still throws (the paper's deadline math must fail loudly).
  EXPECT_THROW(Round{5} - Round{6}, std::underflow_error);
  EXPECT_THROW(Round{5} - Round::pow2(64), std::underflow_error);
}

TEST(RoundPromotion, MultiplyAcrossTheBoundary) {
  Round r{std::uint64_t{1} << 63};
  r *= 2;  // exactly 2^64
  EXPECT_FALSE(r.fits_u64());
  EXPECT_EQ(r, Round::pow2(64));

  // (2^64-1) * (2^64-1): the same two-limb product BigUint computes.
  Round p = Round{kMax} * kMax;
  EXPECT_EQ(p, (BigUint{kMax} * kMax));

  // Multiplying a promoted value by 0 demotes to inline zero.
  Round z = Round::pow2(100) * std::uint64_t{0};
  EXPECT_TRUE(z.is_zero());
  EXPECT_TRUE(z.fits_u64());
  EXPECT_EQ(z, Round{0});
}

TEST(RoundPromotion, ShiftAcrossTheBoundary) {
  EXPECT_TRUE((Round{1} << 63).fits_u64());
  EXPECT_EQ(Round{1} << 64, Round::pow2(64));
  EXPECT_FALSE((Round{1} << 64).fits_u64());
  EXPECT_EQ(Round{3} << 63, Round{3} * (std::uint64_t{1} << 62) * 2);
  // Zero shifts anywhere without promoting or throwing, as in BigUint.
  EXPECT_TRUE((Round{0} << 1000).is_zero());
  // 512-bit overflow still throws.
  EXPECT_THROW(Round{1} << 512, std::overflow_error);
  EXPECT_THROW(Round::pow2(511) << 1, std::overflow_error);
  EXPECT_THROW(Round::pow2(511) + Round::pow2(511), std::overflow_error);
  EXPECT_THROW(Round::pow2(512), std::overflow_error);
}

TEST(RoundPromotion, OrderingIsTotalAcrossRepresentations) {
  const Round small{kMax};
  const Round promoted = Round::pow2(64);
  EXPECT_LT(small, promoted);           // small vs promoted: one null check
  EXPECT_GT(promoted, small);
  EXPECT_LT(Round{0}, small);           // small vs small: u64 compare
  EXPECT_LT(promoted, Round::pow2(65)); // promoted vs promoted: limb compare
  EXPECT_EQ(promoted, Round::pow2(64));
  EXPECT_NE(small, promoted);
  // A promoted value never equals an inline one (canonical representation).
  EXPECT_NE(Round::pow2(64) - Round{1}, promoted);
  // Interop with BigUint (implicit, demoting conversion).
  EXPECT_EQ(Round(BigUint{42}), Round{42});
  EXPECT_TRUE(Round(BigUint{42}).fits_u64());
  EXPECT_EQ(Round(BigUint::pow2(90)), Round::pow2(90));
}

TEST(RoundPromotion, ToStringRoundTripMatchesBigUintAtTheBoundary) {
  for (const Round& r : {Round{kMax - 1}, Round{kMax}, Round::pow2(64),
                         Round::pow2(64) + Round{1}}) {
    EXPECT_EQ(r.to_string(), r.as_big().to_string());
  }
  EXPECT_EQ(Round{kMax}.log2_floor(), 63);
  EXPECT_EQ(Round::pow2(64).log2_floor(), 64);
  EXPECT_EQ(Round{0}.log2_floor(), -1);
}

TEST(RoundPromotion, CopyAndAssignPreserveTheValueAcrossTiers) {
  Round promoted = Round::pow2(200);
  Round copy = promoted;  // deep copy of the promoted representation
  promoted -= Round{1};
  EXPECT_EQ(copy, Round::pow2(200));
  EXPECT_LT(promoted, copy);
  copy = Round{7};  // promoted -> small assignment
  EXPECT_TRUE(copy.fits_u64());
  Round small{3};
  small = Round::pow2(80);  // small -> promoted assignment
  EXPECT_EQ(small, Round::pow2(80));
}

// Protocol C's deadline shape D(i,m) = K(NT-m) * 2^(NT-1-m) spans both
// tiers when NT straddles ~64: the takeover order the correctness proof
// depends on (strictly decreasing in m) must hold across the promotion
// boundary exactly as it held for plain BigUint.  The golden-pinned
// protocol_c report (tests/golden/protocol_c.json, captured from the
// pre-Round binary) pins the full end-to-end consequence.
TEST(RoundPromotion, ProtocolCDeadlineShapeOrdersAcrossTheBoundary) {
  const std::uint64_t K = 5;
  const unsigned NT = 96;  // m near NT-1 gives inline deadlines, small m promoted
  Round prev;
  bool seen_small = false, seen_promoted = false;
  for (unsigned m = NT - 1; m + 1 >= 1; --m) {
    Round d = (Round{K} * (NT - m)) << (NT - 1 - m);
    (d.fits_u64() ? seen_small : seen_promoted) = true;
    EXPECT_GT(d, prev) << "m=" << m;
    prev = d;
    if (m == 0) break;
  }
  EXPECT_TRUE(seen_small);
  EXPECT_TRUE(seen_promoted);
  // never_round() beats every deadline, promoted ones included.
  EXPECT_GT(never_round(), prev);
}

// A value with bits in a random limb: promoted for most draws, inline for
// the rest, so the churn crosses the boundary both ways.
BigUint random_value(std::mt19937_64& rng) {
  const unsigned e = static_cast<unsigned>(rng() % 480);
  BigUint v = e < 64 ? BigUint{rng()} : BigUint::pow2(e);
  v += BigUint{rng()};
  return v;
}

void expect_same(const Round& r, const BigUint& ref, int step) {
  ASSERT_EQ(r.fits_u64(), ref.fits_u64()) << "step " << step;
  ASSERT_EQ(r.as_big(), ref) << "step " << step;
  ASSERT_EQ(r, Round(ref)) << "step " << step;
}

// Copies, assignments, moves, in-place arithmetic, demotions below 2^64 and
// destructions in a seeded random order: blocks pass through the free list
// in every pattern, and each value must still equal its BigUint reference.
TEST(RoundBlockReuse, RandomChurnKeepsEveryValue) {
  std::mt19937_64 rng(20240917);
  constexpr std::size_t kSlots = 48;
  std::vector<std::optional<Round>> slot(kSlots);
  std::vector<BigUint> ref(kSlots);
  for (int step = 0; step < 40000; ++step) {
    const std::size_t i = rng() % kSlots;
    const std::size_t j = rng() % kSlots;
    switch (rng() % 8) {
      case 0:  // make (or remake) a value
        ref[i] = random_value(rng);
        slot[i].emplace(ref[i]);
        break;
      case 1:  // copy construct
        if (!slot[j] || i == j) continue;
        slot[i].reset();
        slot[i].emplace(*slot[j]);
        ref[i] = ref[j];
        break;
      case 2:  // copy assign
        if (!slot[i] || !slot[j]) continue;
        *slot[i] = *slot[j];
        ref[i] = ref[j];
        break;
      case 3:  // move assign; the source is then remade
        if (!slot[i] || !slot[j] || i == j) continue;
        *slot[i] = std::move(*slot[j]);
        ref[i] = ref[j];
        ref[j] = BigUint{rng()};
        *slot[j] = Round(ref[j]);
        break;
      case 4:  // demote: subtract all but a u64 remainder
        if (!slot[i]) continue;
        {
          const BigUint keep{rng() % 1000};
          if (ref[i] < keep) continue;
          *slot[i] -= Round(ref[i] - keep);
          ref[i] = keep;
        }
        break;
      case 5:  // grow in place, promoting an inline value
        if (!slot[i] || ref[i].log2_floor() > 400) continue;
        {
          const std::uint64_t add = rng();
          *slot[i] <<= 40;
          *slot[i] += Round{add};
          ref[i] <<= 40;
          ref[i] += BigUint{add};
        }
        break;
      case 6:  // add another slot's value
        if (!slot[i] || !slot[j] || ref[i].log2_floor() > 500 || ref[j].log2_floor() > 500)
          continue;
        {
          const BigUint sum = ref[i] + ref[j];
          *slot[i] += *slot[j];
          ref[i] = sum;
        }
        break;
      default:  // destroy
        slot[i].reset();
        continue;
    }
    if (slot[i]) expect_same(*slot[i], ref[i], step);
    if (slot[j]) expect_same(*slot[j], ref[j], step);
    if (HasFatalFailure()) return;
  }
  for (std::size_t i = 0; i < kSlots; ++i)
    if (slot[i]) expect_same(*slot[i], ref[i], -1);
}

// Promoted Round i of a batch: distinct per i, all past 2^64.
Round batch_value(std::size_t i) { return Round::pow2(64 + i % 400) + Round{i}; }

// Blocks made on one thread and destroyed on another: the destroying
// thread lists them (up to its cap) and reuses them for its own rounds,
// while the first thread keeps allocating from its own list.  The two run
// concurrently, so a list shared between threads is a data race (the TSan
// build runs this suite).
TEST(RoundBlockThreads, RoundsMadeOnOneThreadAndDestroyedOnAnother) {
  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBatch = 250;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::vector<Round>> queue;
  bool producer_done = false;

  std::thread producer([&] {
    std::vector<Round> own;  // the producer's own churn, interleaved
    for (std::size_t b = 0; b < kBatches; ++b) {
      std::vector<Round> batch;
      batch.reserve(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) batch.push_back(batch_value(b * kBatch + i));
      own.assign(batch.begin(), batch.begin() + 16);
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(std::move(batch));
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      producer_done = true;
    }
    cv.notify_one();
  });

  std::size_t checked = 0;
  bool all_equal = true;
  std::thread consumer([&] {
    std::vector<Round> kept;
    for (std::size_t b = 0;; ++b) {
      std::vector<Round> batch;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || producer_done; });
        if (queue.empty()) return;
        batch = std::move(queue.front());
        queue.pop_front();
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        all_equal = all_equal && batch[i] == batch_value(b * kBatch + i);
        ++checked;
      }
      // Copies reuse the blocks this thread just listed.
      kept.assign(batch.begin(), batch.begin() + 32);
      batch.clear();
      for (std::size_t i = 0; i < kept.size(); ++i)
        all_equal = all_equal && kept[i] == batch_value(b * kBatch + i);
    }
  });
  producer.join();
  consumer.join();
  EXPECT_TRUE(all_equal);
  EXPECT_EQ(checked, kBatches * kBatch);
}

// The list's bounds, on a fresh thread (its list starts empty): a full list
// serves kMaxFreeBlocks promotions without ::operator new, a destroy past
// the cap returns exactly the excess to ::operator delete, warm copy/destroy
// cycles allocate nothing, and thread exit returns every listed block.
TEST(RoundBlockReuse, CapBoundsTheListAndThreadExitDrainsIt) {
  constexpr std::size_t kCap = Round::kMaxFreeBlocks;
  constexpr std::size_t kExcess = 300;
  std::size_t news_fill = 0, deletes_overflow = 0, news_reuse = 0, news_one_more = 0,
              news_cycles = 0, deletes_at_exit = 0;
  std::thread t([&] {
    {
      const Round proto = Round::pow2(300);
      std::vector<Round> rounds;
      rounds.reserve(kCap + kExcess);
      std::size_t n0 = g_news.load();
      for (std::size_t i = 0; i < kCap + kExcess; ++i) rounds.push_back(proto);
      news_fill = g_news.load() - n0;

      const std::size_t d0 = g_block_deletes.load();
      rounds.clear();  // kCap blocks listed, kExcess deleted
      deletes_overflow = g_block_deletes.load() - d0;

      n0 = g_news.load();
      for (std::size_t i = 0; i < kCap; ++i) rounds.push_back(proto);
      news_reuse = g_news.load() - n0;
      n0 = g_news.load();
      rounds.push_back(proto);  // the list is empty now
      news_one_more = g_news.load() - n0;
      rounds.clear();

      n0 = g_news.load();
      for (int cycle = 0; cycle < 2000; ++cycle) {
        Round a = proto;
        Round b = a + a;
        a = b;
        a -= proto;
      }
      news_cycles = g_news.load() - n0;
    }
    deletes_at_exit = g_block_deletes.load();
  });
  t.join();
  deletes_at_exit = g_block_deletes.load() - deletes_at_exit;
  EXPECT_EQ(news_fill, kCap + kExcess);
  EXPECT_EQ(deletes_overflow, kExcess);
  EXPECT_EQ(news_reuse, 0u);
  EXPECT_EQ(news_one_more, 1u);
  EXPECT_EQ(news_cycles, 0u);
  EXPECT_EQ(deletes_at_exit, kCap);  // the list was full when the thread ended
}

#ifdef DOWORK_TEST_ASAN
// A listed block is poisoned: reading a destroyed promoted Round reports
// although its block went to the free list, not to free().
TEST(RoundBlockReuse, ReadingADestroyedPromotedRoundReportsUnderAsan) {
  EXPECT_DEATH(
      {
        alignas(Round) unsigned char buf[sizeof(Round)];
        Round* r = ::new (static_cast<void*>(buf)) Round(Round::pow2(100));
        r->~Round();
        std::fprintf(stderr, "%s\n", r->to_string().c_str());
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace dowork
