#include "protocols/protocol_d.h"

#include <gtest/gtest.h>

#include <thread>

#include "core/runner.h"
#include "sim/round_pool.h"

namespace dowork {
namespace {

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

TEST(ProtocolD, FailureFreeIsTimeOptimal) {
  DoAllConfig cfg{64, 8};  // n/t = 8
  RunResult r = run_do_all("D", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 64u);  // perfect load balance, no redo
  EXPECT_EQ(r.metrics.max_concurrent_workers, 8u);
  // n/t + 2 rounds (Theorem 4.1 discussion): rounds 0..n/t+1.
  EXPECT_EQ(r.metrics.last_retire_round, Round{64u / 8u + 1u});
  // 2 agreement broadcasts to t-1 peers each: 2t(t-1) <= 2t^2 messages.
  EXPECT_EQ(r.metrics.messages_total, 2u * 8u * 7u);
  EXPECT_EQ(r.metrics.messages_of(MsgKind::kAgreement), r.metrics.messages_total);
}

TEST(ProtocolD, FailureFreeUnevenDivision) {
  DoAllConfig cfg{65, 8};  // ceil(65/8) = 9
  RunResult r = run_do_all("D", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 65u);
  EXPECT_EQ(r.metrics.last_retire_round, Round{9u + 1u});
}

TEST(ProtocolD, SingleProcess) {
  DoAllConfig cfg{10, 1};
  RunResult r = run_do_all("D", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 10u);
  EXPECT_EQ(r.metrics.messages_total, 0u);
}

TEST(ProtocolD, OneCrashCostsOneExtraPhase) {
  DoAllConfig cfg{64, 8};
  // Process 3 dies on its first work unit without completing it.
  std::vector<ScheduledFaults::Entry> entries{{3, 1, CrashPlan{false, 0}}};
  RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  // Its 8-unit slice is redone by the 7 survivors in phase 2.
  EXPECT_LE(r.metrics.work_total, 64u + 8u);
  // Paper: with one failure, <= n/t + ceil(n/t(t-1)) + 6 rounds and <= 5t^2
  // messages (plus small pipeline slack).
  EXPECT_LE(r.metrics.last_retire_round, Round{8u + 2u + 8u});
  EXPECT_LE(r.metrics.messages_total, 5u * 64u + 64u);
}

TEST(ProtocolD, CrashDuringAgreementBroadcastStillAgrees) {
  DoAllConfig cfg{32, 4};
  // Process 1: 8 work actions, then dies during its first agreement
  // broadcast, reaching only the first recipient.
  std::vector<ScheduledFaults::Entry> entries{{1, 9, CrashPlan{false, 1}}};
  RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.crashes, 1u);
  // Its slice was already done; survivors may or may not have learned it.
  EXPECT_LE(r.metrics.work_total, 32u + 8u);
}

TEST(ProtocolD, TheoremFourOneCaseOneBounds) {
  // One crash per phase, f = 4 crashes on t = 16: never more than half.
  DoAllConfig cfg{128, 16};
  const int f = 4;
  // Crash process p on its (p+1)*2-th work unit so deaths spread over time.
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 0; p < f; ++p)
    entries.push_back({p, u(2 * (p + 1)), CrashPlan{true, 0}});
  RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_LE(r.metrics.work_total, 2u * 128u) << "work <= 2n (Thm 4.1 1a)";
  EXPECT_LE(r.metrics.messages_total, (4u * f + 2u) * 16u * 16u) << "msgs <= (4f+2)t^2";
  // rounds <= (f+1) n/t + 4f + 2, plus pipeline grace slack (<= 2 per phase).
  EXPECT_LE(r.metrics.last_retire_round, Round{(f + 1) * 8u + 4u * f + 2u + 2u * (f + 1)});
}

TEST(ProtocolD, RevertsToProtocolAWhenMajorityDies) {
  DoAllConfig cfg{64, 8};
  // Kill 5 of 8 (more than half of those thought correct) in phase 1.
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 0; p < 5; ++p) entries.push_back({p, 2, CrashPlan{true, 0}});
  std::vector<std::unique_ptr<IProcess>> procs;
  std::vector<ProtocolDProcess*> raw;
  for (int i = 0; i < cfg.t; ++i) {
    auto d = std::make_unique<ProtocolDProcess>(cfg, i);
    raw.push_back(d.get());
    procs.push_back(std::move(d));
  }
  Simulator::Options opts;
  opts.n_units = cfg.n;
  opts.strict_one_op = true;
  Simulator sim(std::move(procs), std::make_unique<ScheduledFaults>(std::move(entries)), opts);
  RunMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_TRUE(m.all_units_done());
  // The survivors switched to the Protocol A escape hatch.
  bool any_reverted = false;
  for (auto* d : raw) any_reverted |= d->reverted_to_a();
  EXPECT_TRUE(any_reverted);
  // Theorem 4.1 case 2: work <= 4n, checkpoint traffic present.
  EXPECT_LE(m.work_total, 4u * 64u);
  EXPECT_GT(m.messages_of(MsgKind::kCheckpoint), 0u);
}

TEST(ProtocolD, GracefulDegradationRoundsGrowLinearlyInF) {
  DoAllConfig cfg{240, 8};
  std::uint64_t prev_rounds = 0;
  for (int f : {0, 2, 4}) {
    std::vector<ScheduledFaults::Entry> entries;
    for (int p = 0; p < f; ++p) entries.push_back({p, u(10 * (p + 1)), CrashPlan{true, 0}});
    RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
    ASSERT_TRUE(r.ok()) << r.violation << " f=" << f;
    std::uint64_t rounds = r.metrics.last_retire_round.to_u64_saturating();
    EXPECT_GE(rounds, prev_rounds);
    // Never worse than (f+1)n/t + O(f).
    EXPECT_LE(rounds, u((f + 1) * 30 + 6 * f + 6));
    prev_rounds = rounds;
  }
}

struct SweepCase {
  std::int64_t n;
  int t;
  int fault_mode;
  unsigned seed;
};

class ProtocolDSweep : public ::testing::TestWithParam<SweepCase> {};

std::unique_ptr<FaultInjector> make_faults(const SweepCase& c) {
  switch (c.fault_mode) {
    case 1:
      return std::make_unique<WorkCascadeFaults>(1, c.t - 1, 0);
    case 2:
      return std::make_unique<WorkCascadeFaults>(u(ceil_div(c.n, c.t)), c.t - 1, 2);
    case 3:
      return std::make_unique<RandomFaults>(0.05, c.t - 1, c.seed);
    default:
      return std::make_unique<NoFaults>();
  }
}

TEST_P(ProtocolDSweep, AlwaysCompletesAllWork) {
  const SweepCase& c = GetParam();
  DoAllConfig cfg{c.n, c.t};
  RunResult r = run_do_all("D", cfg, make_faults(c));
  ASSERT_TRUE(r.ok()) << r.violation << " (" << cfg.to_string() << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolDSweep,
    ::testing::Values(
        SweepCase{16, 4, 0, 0}, SweepCase{16, 4, 1, 0}, SweepCase{16, 4, 2, 0},
        SweepCase{16, 4, 3, 1}, SweepCase{100, 10, 1, 0}, SweepCase{100, 10, 2, 0},
        SweepCase{100, 10, 3, 2}, SweepCase{64, 16, 1, 0}, SweepCase{64, 16, 3, 3},
        SweepCase{50, 7, 1, 0}, SweepCase{50, 7, 3, 4}, SweepCase{8, 16, 1, 0},
        SweepCase{8, 16, 3, 5}, SweepCase{1, 4, 1, 0}, SweepCase{33, 11, 2, 0},
        SweepCase{33, 11, 3, 6}, SweepCase{256, 25, 1, 0}, SweepCase{256, 25, 3, 7},
        SweepCase{128, 2, 1, 0}, SweepCase{40, 3, 3, 8}, SweepCase{512, 32, 3, 9},
        SweepCase{81, 81, 1, 0}, SweepCase{81, 81, 3, 10}));

class ProtocolDRandom : public ::testing::TestWithParam<unsigned> {};

// The run-shared AgreeMergeCache is a pure memoization: with and without
// it, every metric of the run -- work, messages, rounds, per-process and
// per-unit breakdowns -- must be identical, including under mid-broadcast
// prefix cuts (which force some recipients onto the slow merge path) and
// random schedules.
TEST(ProtocolD, MergeCacheIsObservablyInvisible) {
  const DoAllConfig cfg{96, 12};
  auto run_with = [&](bool cached, std::unique_ptr<FaultInjector> faults) {
    auto cache = cached ? std::make_shared<AgreeMergeCache>() : nullptr;
    std::vector<std::unique_ptr<IProcess>> procs;
    for (int i = 0; i < cfg.t; ++i)
      procs.push_back(std::make_unique<ProtocolDProcess>(cfg, i, cache));
    Simulator::Options opts;
    opts.strict_one_op = true;
    opts.n_units = cfg.n;
    return run_simulation(std::move(procs), std::move(faults), opts);
  };
  auto faults = [] {
    // Crashes landing in work rounds AND mid-agreement-broadcast (half the
    // audience cut), so both merge paths are exercised.
    return std::make_unique<ScheduledFaults>(std::vector<ScheduledFaults::Entry>{
        {2, 3, CrashPlan{false, 0}},
        {5, 9, CrashPlan{true, 5}},
        {7, 11, CrashPlan{true, 2}},
    });
  };
  RunMetrics with = run_with(true, faults());
  RunMetrics without = run_with(false, faults());
  EXPECT_EQ(with.work_total, without.work_total);
  EXPECT_EQ(with.messages_total, without.messages_total);
  EXPECT_EQ(with.last_retire_round, without.last_retire_round);
  EXPECT_EQ(with.stepped_rounds, without.stepped_rounds);
  EXPECT_EQ(with.crashes, without.crashes);
  EXPECT_EQ(with.unit_multiplicity, without.unit_multiplicity);
  EXPECT_EQ(with.work_by_proc, without.work_by_proc);
  EXPECT_EQ(with.messages_by_proc, without.messages_by_proc);
  EXPECT_EQ(with.messages_by_kind, without.messages_by_kind);

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    RunMetrics a = run_with(true, std::make_unique<RandomFaults>(0.05, 11, seed));
    RunMetrics b = run_with(false, std::make_unique<RandomFaults>(0.05, 11, seed));
    EXPECT_EQ(a.work_total, b.work_total) << "seed " << seed;
    EXPECT_EQ(a.messages_total, b.messages_total) << "seed " << seed;
    EXPECT_EQ(a.last_retire_round, b.last_retire_round) << "seed " << seed;
    EXPECT_EQ(a.work_by_proc, b.work_by_proc) << "seed " << seed;
  }
}

TEST_P(ProtocolDRandom, RandomSchedulesAlwaysComplete) {
  DoAllConfig cfg{120, 12};
  RunResult r = run_do_all("D", cfg, std::make_unique<RandomFaults>(0.05, 11, GetParam()));
  ASSERT_TRUE(r.ok()) << r.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolDRandom, ::testing::Range(0u, 25u));

// --- the one-fold contract ---------------------------------------------------
//
// AgreeMergeCache builds one fold per round from its first requester and
// serves it to every requester whose seen-set plus own message match the
// table pointer for pointer, from any thread, in any order.  These tests pin
// the contract directly: every matching requester gets exactly the naive
// merge, and every deviation returns false with the views untouched.

// One synthetic agreement round: t messages with distinct views, sender 6
// silent (a crashed broadcaster every recipient agrees is silent).
struct FoldFixture {
  static constexpr int t = 12;
  static constexpr std::size_t n = 48;
  std::vector<std::unique_ptr<AgreeMsg>> owned;
  std::vector<const AgreeMsg*> table;  // by sender; null = silent

  FoldFixture() {
    table.assign(t, nullptr);
    for (int i = 0; i < t; ++i) {
      if (i == 6) continue;
      DynBitset s(n, true);
      s.reset(static_cast<std::size_t>(i));      // each sender knows unit i done
      s.reset(static_cast<std::size_t>(i + 12));
      DynBitset tv(t);
      tv.set(static_cast<std::size_t>(i));       // and believes itself alive
      tv.set(static_cast<std::size_t>((i + 1) % t));
      owned.push_back(std::make_unique<AgreeMsg>(1, std::move(s), std::move(tv), false));
      table[static_cast<std::size_t>(i)] = owned.back().get();
    }
  }

  // What recipient `self` hears: everyone's message but its own.
  std::vector<const AgreeMsg*> seen_for(int self) const {
    std::vector<const AgreeMsg*> seen = table;
    seen[static_cast<std::size_t>(self)] = nullptr;
    return seen;
  }

  const AgreeMsg* own(int self) const { return table[static_cast<std::size_t>(self)]; }

  // A requester's views before the merge: its own last broadcast carries
  // them, which is what ProtocolDProcess guarantees at every fold.
  void start_views(int self, DynBitset& sn, DynBitset& tn) const {
    sn = own(self)->s_left;
    tn = own(self)->t_alive;
  }

  // The naive merge the cache must reproduce bit for bit.
  void naive(int self, DynBitset& sn, DynBitset& tn) const {
    for (int i = 0; i < t; ++i) {
      if (i == self) continue;
      if (const AgreeMsg* m = table[static_cast<std::size_t>(i)]) {
        sn &= m->s_left;
        tn |= m->t_alive;
      }
    }
  }

  // Serves `self` from `cache` and checks the result against naive; returns
  // whether the fast path was taken.
  bool serve(AgreeMergeCache& cache, int self) const {
    DynBitset sn, tn, want_sn, want_tn;
    start_views(self, sn, tn);
    start_views(self, want_sn, want_tn);
    if (!cache.fold(self, Round{7u}, 1, seen_for(self), own(self), sn, tn)) return false;
    naive(self, want_sn, want_tn);
    EXPECT_EQ(sn, want_sn) << "self " << self;
    EXPECT_EQ(tn, want_tn) << "self " << self;
    return true;
  }
};

TEST(ProtocolDParallel, MergeCacheOneFoldMatchesNaiveInAnyOrder) {
  const FoldFixture fx;
  std::vector<int> ascending, descending;
  for (int self = 0; self < FoldFixture::t; ++self)
    if (fx.own(self) != nullptr) ascending.push_back(self);
  descending.assign(ascending.rbegin(), ascending.rend());
  for (const std::vector<int>& order : {ascending, descending}) {
    AgreeMergeCache cache;
    for (int self : order) EXPECT_TRUE(fx.serve(cache, self)) << "self " << self;
  }
  // Two serving threads interleaved (even ids here, odd ids there): whoever
  // builds the fold, everyone gets it.
  AgreeMergeCache cache;
  std::vector<int> fell_back_even, fell_back_odd;
  auto serve_parity = [&](int parity, std::vector<int>& fell_back) {
    for (int self : ascending)
      if (self % 2 == parity && !fx.serve(cache, self)) fell_back.push_back(self);
  };
  std::thread odd([&] { serve_parity(1, fell_back_odd); });
  serve_parity(0, fell_back_even);
  odd.join();
  EXPECT_TRUE(fell_back_even.empty());
  EXPECT_TRUE(fell_back_odd.empty());
}

TEST(ProtocolDParallel, MergeCacheDeviationsFallBackUntouched) {
  const FoldFixture fx;
  AgreeMergeCache cache;
  ASSERT_TRUE(fx.serve(cache, 0));  // builds the round's table
  const AgreeMsg extra(1, DynBitset(fx.n), DynBitset(fx.t, true), false);
  auto expect_fallback = [&](const char* why, std::vector<const AgreeMsg*> seen,
                             const AgreeMsg* own, int phase) {
    DynBitset sn, tn;
    fx.start_views(3, sn, tn);
    const DynBitset sn_before = sn, tn_before = tn;
    EXPECT_FALSE(cache.fold(3, Round{7u}, phase, seen, own, sn, tn)) << why;
    EXPECT_EQ(sn, sn_before) << why;
    EXPECT_EQ(tn, tn_before) << why;
  };
  std::vector<const AgreeMsg*> cut = fx.seen_for(3);
  cut[5] = nullptr;  // sender 5's broadcast was cut before reaching 3
  expect_fallback("missing sender", cut, fx.own(3), 1);
  std::vector<const AgreeMsg*> early = fx.seen_for(3);
  early[6] = &extra;  // an arrival the table does not have
  expect_fallback("extra arrival", early, fx.own(3), 1);
  expect_fallback("phase mismatch", fx.seen_for(3), fx.own(3), 2);
  expect_fallback("null own message", fx.seen_for(3), nullptr, 1);
  // The deviations left the table alone: the matching requester still hits.
  EXPECT_TRUE(fx.serve(cache, 3));
}

// End to end: the cache under a genuinely sharded simulator round must stay
// observably invisible -- cached + sharded vs naive + serial, identical
// metrics -- including the mid-broadcast cuts that force slow-path merges.
TEST(ProtocolDParallel, MergeCacheInvisibleUnderShardedRounds) {
  const DoAllConfig cfg{96, 12};
  auto faults = [] {
    return std::make_unique<ScheduledFaults>(std::vector<ScheduledFaults::Entry>{
        {2, 3, CrashPlan{false, 0}},
        {5, 9, CrashPlan{true, 5}},
        {7, 11, CrashPlan{true, 2}},
    });
  };
  auto run_with = [&](bool cached, int threads) {
    auto cache = cached ? std::make_shared<AgreeMergeCache>() : nullptr;
    std::vector<std::unique_ptr<IProcess>> procs;
    for (int i = 0; i < cfg.t; ++i)
      procs.push_back(std::make_unique<ProtocolDProcess>(cfg, i, cache));
    Simulator::Options opts;
    opts.strict_one_op = true;
    opts.n_units = cfg.n;
    Simulator sim(std::move(procs), faults(), opts);
    // min_steps_per_shard = 1 so even t = 12 rounds genuinely shard.
    RoundPool pool(threads, 1);
    if (threads > 1) sim.set_step_executor(&pool);
    return sim.run();
  };
  const RunMetrics naive_serial = run_with(false, 1);
  for (int threads : {2, 4}) {
    const RunMetrics cached_sharded = run_with(true, threads);
    EXPECT_EQ(cached_sharded.work_total, naive_serial.work_total) << threads;
    EXPECT_EQ(cached_sharded.messages_total, naive_serial.messages_total) << threads;
    EXPECT_EQ(cached_sharded.last_retire_round, naive_serial.last_retire_round) << threads;
    EXPECT_EQ(cached_sharded.stepped_rounds, naive_serial.stepped_rounds) << threads;
    EXPECT_EQ(cached_sharded.crashes, naive_serial.crashes) << threads;
    EXPECT_EQ(cached_sharded.unit_multiplicity, naive_serial.unit_multiplicity) << threads;
    EXPECT_EQ(cached_sharded.work_by_proc, naive_serial.work_by_proc) << threads;
    EXPECT_EQ(cached_sharded.messages_by_proc, naive_serial.messages_by_proc) << threads;
    EXPECT_EQ(cached_sharded.messages_by_kind, naive_serial.messages_by_kind) << threads;
  }
}

}  // namespace
}  // namespace dowork
