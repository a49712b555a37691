#include "protocols/protocol_d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "bitset_printer.h"
#include "core/registry.h"
#include "core/runner.h"
#include "sim/round_pool.h"
#include "substrate/differential.h"
#include "util/rng.h"

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

TEST(ProtocolD, RevertedRunTakesOverOnProtocolASchedule) {
  // As above, then process 5 -- rank 0 of the survivors, so the embedded
  // Protocol A's first worker -- dies after the revert.  The takeover's
  // round depends on RevertToA's start round and rank translation; the
  // figures were captured before the revert wrapper was shared.
  DoAllConfig cfg{64, 8};
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 0; p < 5; ++p) entries.push_back({p, 2, CrashPlan{true, 0}});
  entries.push_back({5, 12, CrashPlan{true, 0}});
  RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 75u);
  EXPECT_EQ(r.metrics.messages_total, 35u);
  EXPECT_EQ(r.metrics.last_retire_round, Round{102u});
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

// --- the phase core D shares with D_coord and dynamic D ----------------------

DynBitset bits(std::size_t n, std::initializer_list<std::size_t> on) {
  DynBitset b(n);
  for (std::size_t i : on) b.set(i);
  return b;
}

SharedBits shared(std::size_t n, std::initializer_list<std::size_t> on) {
  return share_bits(bits(n, on));
}

TEST(ProtocolDPhaseCore, WorkSliceCutsOutstandingByRankInT) {
  // Outstanding units 2, 3, 5, 7, 8 over T = {0, 2, 3}: w = ceil(5/3) = 2.
  const DynBitset s = bits(8, {1, 2, 4, 6, 7});
  const DynBitset alive = bits(4, {0, 2, 3});
  std::vector<std::int64_t> slice{99};
  EXPECT_EQ(work_slice(s, alive, 0, slice), 2);
  EXPECT_EQ(slice, (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(work_slice(s, alive, 2, slice), 2);
  EXPECT_EQ(slice, (std::vector<std::int64_t>{5, 7}));
  EXPECT_EQ(work_slice(s, alive, 3, slice), 2);
  EXPECT_EQ(slice, (std::vector<std::int64_t>{8}));
  work_slice(s, alive, 1, slice);  // outside T: no slice
  EXPECT_TRUE(slice.empty());
  // Dynamic D's outstanding set is S and known; with nothing outstanding
  // w is 0 (DPhaseLoop stretches the phase to one round itself).
  DynBitset known = bits(8, {1, 4});
  known &= bits(8, {0, 2, 3, 6, 7});  // S: units 2 and 5 done
  EXPECT_TRUE(known.none());
  EXPECT_EQ(work_slice(known, alive, 0, slice), 0);
  EXPECT_TRUE(slice.empty());
}

// work_slice counts |S| and |T|, ranks self in T and selects into S through
// the bitset's counting kernels; this pins it to the definition (Figure 4:
// flatten S, give the survivor of rank r the r-th block of ceil(|S|/|T|)
// units) over seeded random S and T on ragged shapes, for every self.
TEST(ProtocolD, WorkSliceMatchesFlattenedReference) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {70, 3}, {129, 7}, {1000, 65}, {4103, 130}};
  for (auto [n, t] : shapes) {
    for (double density : {0.0, 0.05, 0.5, 1.0}) {
      Rng rng(n * 31 + t + static_cast<std::size_t>(density * 100));
      DynBitset s(n);
      DynBitset alive(t);
      for (std::size_t i = 0; i < n; ++i)
        if (rng.chance(density)) s.set(i);
      for (std::size_t p = 0; p < t; ++p)
        if (rng.chance(0.7)) alive.set(p);
      if (t > 1) alive.reset(rng.uniform(0, t - 1));  // at least one self outside T
      std::vector<std::int64_t> flat;  // S flattened to unit ids, in order
      for (std::size_t i = 0; i < n; ++i)
        if (s.test(i)) flat.push_back(static_cast<std::int64_t>(i) + 1);
      std::vector<int> live;
      for (std::size_t p = 0; p < t; ++p)
        if (alive.test(p)) live.push_back(static_cast<int>(p));
      const auto left = static_cast<std::int64_t>(flat.size());
      const auto procs = static_cast<std::int64_t>(std::max<std::size_t>(1, live.size()));
      const std::int64_t w = (left + procs - 1) / procs;
      for (std::size_t self = 0; self < t; ++self) {
        SCOPED_TRACE(::testing::Message() << "n " << n << ", t " << t << ", density " << density
                                          << ", self " << self);
        std::vector<std::int64_t> want;
        const auto it = std::find(live.begin(), live.end(), static_cast<int>(self));
        if (it != live.end()) {
          const std::int64_t from = (it - live.begin()) * w;
          for (std::int64_t k = from; k < std::min(from + w, left); ++k)
            want.push_back(flat[static_cast<std::size_t>(k)]);
        }
        std::vector<std::int64_t> slice{-1};
        ASSERT_EQ(work_slice(s, alive, static_cast<int>(self), slice), w);
        ASSERT_EQ(slice, want);
      }
    }
  }
}

TEST(ProtocolDPhaseCore, AgreeReceiveAdoptsLowestDoneElseMergesThenDropsSilent) {
  const AgreeMsg a(1, shared(6, {0, 1, 2}), shared(4, {1}), false);
  const AgreeMsg b(1, shared(6, {1, 2, 3}), shared(4, {2}), false);
  const AgreeMsg d2(1, shared(6, {5}), shared(4, {0, 2}), true);
  const AgreeMsg d3(1, shared(6, {4}), shared(4, {3}), true);
  // Self is 0; process 3 is silent.
  std::vector<const AgreeMsg*> seen{nullptr, &a, &b, nullptr};
  AgreeView v{share_bits(DynBitset(6, true)), shared(4, {0}), nullptr};
  SView& sn = v.s_left;
  SharedBits& tn = v.t_alive;
  SharedBits u = share_bits(DynBitset(4, true));
  bool removed = false;
  EXPECT_FALSE(agree_receive(fold_views(seen), 0, /*past_grace=*/false, v, u, removed));
  EXPECT_EQ(sn.flat(), bits(6, {1, 2}));
  EXPECT_EQ(*tn, bits(4, {0, 1, 2}));
  EXPECT_FALSE(removed);  // inside the grace iteration silence is forgiven
  EXPECT_EQ(*u, DynBitset(4, true));
  EXPECT_FALSE(agree_receive(fold_views(seen), 0, /*past_grace=*/true, v, u, removed));
  EXPECT_TRUE(removed);
  EXPECT_EQ(*u, bits(4, {0, 1, 2}));  // self stays, though it sent itself nothing
  // Two done views: the lowest sender's is adopted whole, nothing merged.
  seen = {nullptr, &a, &d2, &d3};
  removed = false;
  EXPECT_TRUE(agree_receive(fold_views(seen), 0, /*past_grace=*/true, v, u, removed));
  EXPECT_EQ(sn.flat(), d2.s_left.flat());
  EXPECT_EQ(*tn, *d2.t_alive);
  EXPECT_FALSE(removed);
}

TEST(ProtocolDPhaseCore, FoldViewsAndsOrsEveryViewAndPicksLowestDoneSender) {
  const AgreeMsg a(1, shared(6, {0, 1, 2}), shared(4, {1}), false);
  const AgreeMsg d2(1, shared(6, {1, 5}), shared(4, {0, 2}), true);
  const AgreeMsg d3(1, shared(6, {1, 4}), shared(4, {3}), true);
  const AgreeFold f = fold_views({nullptr, &a, &d3, &d2, nullptr});
  EXPECT_EQ(f.done, &d3);  // the lowest done sender, not the first stashed
  // Done views are folded too: D_coord's coordinator merges every report.
  EXPECT_EQ(*f.sn, bits(6, {1}));
  EXPECT_EQ(*f.tn, bits(4, {0, 1, 2, 3}));
  EXPECT_EQ(*f.heard, bits(5, {1, 2, 3}));
  AgreeView v{share_bits(DynBitset(6, true)), shared(4, {0}), nullptr};
  SView& sn = v.s_left;
  SharedBits& tn = v.t_alive;
  f.merge_into(v, 0);
  EXPECT_EQ(sn.flat(), bits(6, {1}));
  EXPECT_EQ(*tn, bits(4, {0, 1, 2, 3}));

  // No views: nothing heard, no done view, and the merge changes nothing.
  const AgreeFold none = fold_views({nullptr, nullptr, nullptr, nullptr});
  EXPECT_EQ(none.done, nullptr);
  EXPECT_TRUE(none.heard->none());
  EXPECT_EQ(none.heard->size(), 4u);
  none.merge_into(v, 0);
  EXPECT_EQ(sn.flat(), bits(6, {1}));
  EXPECT_EQ(*tn, bits(4, {0, 1, 2, 3}));
  SharedBits u = share_bits(DynBitset(4, true));
  EXPECT_TRUE(drop_silent(u, none.heard, 2));  // all silent: only self stays
  EXPECT_EQ(*u, bits(4, {2}));
  EXPECT_FALSE(drop_silent(u, none.heard, 2));
}

// Survivors' views share T objects: fold_views ORs each object once per run
// of senders holding it, and the implicit {sender} between runs still
// counts.  The fold equals the naive OR either way.
TEST(ProtocolDPhaseCore, FoldViewsOverSharedTObjectsMatchesTheNaiveOr) {
  const SharedBits s = shared(6, {0, 1, 2, 3, 4, 5});
  const SharedBits x = shared(7, {0, 3});
  const SharedBits y = shared(7, {5});
  const AgreeMsg ax(1, s, x, false), ay(1, s, y, false), implicit(1, s, nullptr, false);
  const std::vector<const AgreeMsg*> views{&ax, &ax, &implicit, nullptr, &ax, &ay, &ax};
  DynBitset naive(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!views[i]) continue;
    if (views[i]->t_alive)
      naive |= *views[i]->t_alive;
    else
      naive.set(i);
  }
  const AgreeFold f = fold_views(views);
  EXPECT_EQ(*f.tn, naive);
  EXPECT_EQ(*f.tn, bits(7, {0, 2, 3, 5}));
}

// merge_into shares by content: S is the AND, T the OR, and each side ends
// on the fold's object, on the held object, or on a fresh one holding the
// exact result -- never on a copy of an operand it could have aliased.
TEST(ProtocolDPhaseCore, MergeIntoAdoptsTheFoldKeepsItsOwnOrAllocatesTheResult) {
  const auto fold_of = [](SharedBits s, SharedBits t) {
    AgreeFold f;
    f.sn = std::move(s);
    f.tn = std::move(t);
    return f;
  };
  // The fold's S is within the held S (AND = fold) and the held T within
  // the fold's T (OR = fold): both adopt the fold's objects.
  {
    const AgreeFold f = fold_of(shared(70, {1, 64}), shared(5, {0, 2, 4}));
    AgreeView v{shared(70, {1, 2, 64, 69}), shared(5, {2}), nullptr};
    SView& sn = v.s_left;
    SharedBits& tn = v.t_alive;
    f.merge_into(v, 0);
    EXPECT_EQ(sn.base, f.sn);
    EXPECT_EQ(tn, f.tn);
  }
  // The held S is within the fold's (AND = held) and the fold's T within
  // the held T (OR = held): both keep their own objects.
  {
    const AgreeFold f = fold_of(shared(70, {1, 2, 64, 69}), shared(5, {2}));
    const SharedBits own_s = shared(70, {1, 64}), own_t = shared(5, {0, 2, 4});
    AgreeView v{own_s, own_t, nullptr};
    SView& sn = v.s_left;
    SharedBits& tn = v.t_alive;
    f.merge_into(v, 0);
    EXPECT_EQ(sn.base, own_s);
    EXPECT_EQ(tn, own_t);
  }
  // Neither contains the other: fresh objects with exactly the AND and OR,
  // the operands untouched.
  {
    const AgreeFold f = fold_of(shared(70, {1, 64, 69}), shared(5, {0, 2}));
    const SharedBits own_s = shared(70, {2, 64, 69}), own_t = shared(5, {2, 3});
    AgreeView v{own_s, own_t, nullptr};
    SView& sn = v.s_left;
    SharedBits& tn = v.t_alive;
    f.merge_into(v, 0);
    EXPECT_NE(sn.base, own_s);
    EXPECT_NE(sn.base, f.sn);
    EXPECT_NE(tn, own_t);
    EXPECT_NE(tn, f.tn);
    EXPECT_EQ(sn.flat(), bits(70, {64, 69}));
    EXPECT_EQ(*tn, bits(5, {0, 2, 3}));
    EXPECT_EQ(*own_s, bits(70, {2, 64, 69}));
    EXPECT_EQ(*f.sn, bits(70, {1, 64, 69}));
    EXPECT_EQ(*own_t, bits(5, {2, 3}));
    EXPECT_EQ(*f.tn, bits(5, {0, 2}));
  }
  // Equal content in distinct objects: the fold's objects win, so every
  // holder that merges one fold converges on one object.
  {
    const AgreeFold f = fold_of(shared(70, {3}), shared(5, {1}));
    AgreeView v{shared(70, {3}), shared(5, {1}), nullptr};
    SView& sn = v.s_left;
    SharedBits& tn = v.t_alive;
    f.merge_into(v, 0);
    EXPECT_EQ(sn.base, f.sn);
    EXPECT_EQ(tn, f.tn);
  }
  // An empty fold changes nothing, not even the objects held.
  {
    const AgreeFold none = fold_views({nullptr, nullptr});
    EXPECT_EQ(none.sn, nullptr);
    EXPECT_EQ(none.tn, nullptr);
    const SharedBits own_s = shared(70, {5}), own_t = shared(5, {4});
    AgreeView v{own_s, own_t, nullptr};
    SView& sn = v.s_left;
    SharedBits& tn = v.t_alive;
    none.merge_into(v, 0);
    EXPECT_EQ(sn.base, own_s);
    EXPECT_EQ(tn, own_t);
  }
}

// The naive AND of the views' materialized S, for checking cut folds.
DynBitset naive_and(const std::vector<const AgreeMsg*>& views) {
  DynBitset out;
  for (const AgreeMsg* m : views) {
    if (!m) continue;
    if (out.size() == 0)
      out = m->s_left.flat();
    else
      out &= m->s_left.flat();
  }
  return out;
}

// fold_views over cut views: one shared base cut by disjoint slices (the
// iteration-0 shape), bases mixed with and without cuts, and a cut that
// covers no set bit -- each fold equals the naive AND of the flat views.
TEST(ProtocolDPhaseCore, FoldViewsOverCutViewsMatchesTheNaiveAnd) {
  DynBitset s(130, true);
  s.reset(3);
  s.reset(100);
  const SharedBits base = share_bits(s);
  const SharedBits t1 = shared(4, {1});
  const auto cut = [&](SharedBits b, std::size_t lo, std::size_t hi) {
    return std::make_shared<AgreeMsg>(1, SView(std::move(b), lo, hi), t1, false);
  };
  {  // one base: four slices, one crossing the 63/64 word edge
    const auto a = cut(base, 0, 40), b = cut(base, 40, 70), c = cut(base, 70, 128),
               d = cut(base, 128, 130);
    const std::vector<const AgreeMsg*> views{a.get(), b.get(), nullptr, c.get(), d.get()};
    const AgreeFold f = fold_views(views);
    EXPECT_EQ(*f.sn, naive_and(views));
    EXPECT_TRUE(f.sn->none());
    const std::vector<const AgreeMsg*> two{nullptr, b.get(), d.get()};
    EXPECT_EQ(*fold_views(two).sn, naive_and(two));
    EXPECT_EQ(fold_views(two).sn->count(), 128u - 30u - 2u);
  }
  {  // mixed bases, alternating, cut and uncut
    DynBitset other(130, true);
    other.reset(64);
    other.reset(129);
    const SharedBits base2 = share_bits(other);
    const auto a = cut(base, 5, 9), b = cut(base2, 60, 66), c = cut(base, 120, 125);
    const auto d = std::make_shared<AgreeMsg>(1, SView(base2), t1, false);
    const std::vector<const AgreeMsg*> views{a.get(), b.get(), c.get(), d.get()};
    EXPECT_EQ(*fold_views(views).sn, naive_and(views));
  }
  {  // a cut over positions that are already clear changes nothing
    const auto a = cut(base, 3, 4), b = cut(base, 100, 101);
    const std::vector<const AgreeMsg*> views{a.get(), b.get()};
    EXPECT_EQ(*fold_views(views).sn, naive_and(views));
    EXPECT_EQ(*fold_views(views).sn, s);
  }
}

// merge_into with a cut held S: when the fold is within the base and clear
// of the cut, the holder adopts the fold's object without flattening;
// otherwise it flattens and holds the exact AND.
TEST(ProtocolDPhaseCore, MergeIntoACutHeldViewAdoptsOrFlattens) {
  AgreeFold f;
  f.sn = shared(70, {1, 64, 69});
  f.tn = shared(5, {0});
  const SharedBits base = shared(70, {1, 2, 30, 64, 69});
  {  // the cut [20, 40) holds none of the fold: adopt
    AgreeView v{SView(base, 20, 40), shared(5, {1}), nullptr};
    SView& sn = v.s_left;
    SharedBits& tn = v.t_alive;
    f.merge_into(v, 0);
    EXPECT_EQ(sn.base, f.sn);
    EXPECT_FALSE(sn.cut());
    EXPECT_EQ(*tn, bits(5, {0, 1}));
  }
  {  // the cut [60, 66) removes 64 from the held view: flatten, exact AND
    AgreeView v{SView(base, 60, 66), shared(5, {0}), nullptr};
    SView& sn = v.s_left;
    f.merge_into(v, 0);
    EXPECT_NE(sn.base, f.sn);
    EXPECT_NE(sn.base, base);
    EXPECT_FALSE(sn.cut());
    EXPECT_EQ(*sn.base, bits(70, {1, 69}));
    EXPECT_EQ(*base, bits(70, {1, 2, 30, 64, 69}));  // the shared base is untouched
  }
  {  // the fold's own object, cut so that it misses one of its bits: flatten
    AgreeView v{SView(f.sn, 0, 2), shared(5, {0}), nullptr};
    SView& sn = v.s_left;
    f.merge_into(v, 0);
    EXPECT_NE(sn.base, f.sn);
    EXPECT_EQ(*sn.base, bits(70, {64, 69}));
  }
}

// The exact lattice merge of `held` (owned by `self`) with every view of
// `views`, as flat sets: S by AND, T by OR (a null T is its owner alone),
// known by OR (null when either side knows every unit).
struct FlatView {
  DynBitset s, t;
  std::optional<DynBitset> known;
};
FlatView lattice(const AgreeView& held, int self, const std::vector<const AgreeMsg*>& views) {
  const std::size_t procs = views.size();
  FlatView out{held.s_left.flat(), held.t_alive ? *held.t_alive : bits(procs, {}), std::nullopt};
  if (!held.t_alive) out.t.set(static_cast<std::size_t>(self));
  if (held.known) out.known = *held.known;
  bool every_unit = !held.known;
  for (std::size_t i = 0; i < procs; ++i) {
    const AgreeMsg* m = views[i];
    if (!m) continue;
    out.s &= m->s_left.flat();
    if (m->t_alive)
      out.t |= *m->t_alive;
    else
      out.t.set(i);
    if (!m->known)
      every_unit = true;
    else if (out.known)
      *out.known |= *m->known;
  }
  if (every_unit) out.known.reset();
  return out;
}

void expect_lattice(const AgreeView& merged, const FlatView& want) {
  EXPECT_EQ(merged.s_left.flat(), want.s);
  ASSERT_NE(merged.t_alive, nullptr);
  EXPECT_EQ(*merged.t_alive, want.t);
  EXPECT_EQ(merged.known != nullptr, want.known.has_value());
  if (merged.known && want.known) {
    EXPECT_EQ(*merged.known, *want.known);
  }
}

// A served receive merges a fold that holds the recipient's own current
// view (its last broadcast, aliasing the held view).  It adopts the fold's
// objects without scanning, and they are exactly the objects the scanning
// rule arrives at: over seeded random views, cut and uncut held S, implicit
// and explicit T, known sets or every unit.
TEST(ProtocolDPhaseCore, ServedMergeAdoptsTheObjectsTheScanWouldTake) {
  constexpr std::size_t kProcs = 9;
  for (std::uint64_t seed = 0; seed < 120; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const std::size_t n = std::vector<std::size_t>{70, 130, 4103}[seed % 3];
    const int self = static_cast<int>(rng.uniform(0, kProcs - 1));
    const auto random_bits = [&](std::size_t size, double p) {
      DynBitset b(size);
      for (std::size_t i = 0; i < size; ++i)
        if (rng.chance(p)) b.set(i);
      return b;
    };
    const SharedBits base = share_bits(random_bits(n, 0.8));
    const bool with_known = rng.chance(0.5);
    const auto random_view = [&](bool own) {
      AgreeView v;
      const std::size_t lo = static_cast<std::size_t>(rng.uniform(0, n - 1));
      const std::size_t hi = std::min(n, lo + static_cast<std::size_t>(rng.uniform(1, 80)));
      switch (rng.uniform(0, 2)) {
        case 0: v.s_left = SView(base); break;
        case 1: v.s_left = SView(base, lo, hi); break;
        default: {
          DynBitset s = *base;
          s &= random_bits(n, 0.9);
          v.s_left = rng.chance(0.5) ? SView(share_bits(s)) : SView(share_bits(s), lo, hi);
        }
      }
      if (rng.chance(0.5)) {
        DynBitset t = random_bits(kProcs, 0.6);
        if (own) t.set(static_cast<std::size_t>(self));
        v.t_alive = share_bits(t);
      }
      if (with_known && rng.chance(0.85)) v.known = share_bits(random_bits(n, 0.7));
      v.past_horizon = rng.chance(0.7);
      return v;
    };
    const AgreeView held = random_view(true);
    // The own broadcast aliases the held view, as DPhaseLoop::broadcast's.
    const AgreeMsg own(1, held.s_left, held.t_alive, false, held.known, held.past_horizon);
    std::vector<std::shared_ptr<AgreeMsg>> others;
    std::vector<const AgreeMsg*> by_sender(kProcs, nullptr);
    by_sender[static_cast<std::size_t>(self)] = &own;
    for (std::size_t i = 0; i < kProcs; ++i) {
      if (static_cast<int>(i) == self || rng.chance(0.3)) continue;
      AgreeView v = random_view(false);
      others.push_back(std::make_shared<AgreeMsg>(1, v.s_left, v.t_alive, false, v.known,
                                                  v.past_horizon));
      by_sender[i] = others.back().get();
    }
    AgreeFold fold = fold_views(by_sender);
    EXPECT_FALSE(fold.holds_own_view);  // only the merge cache's index says so
    AgreeView scanned = held;
    fold.merge_into(scanned, self);
    fold.holds_own_view = true;
    AgreeView adopted = held;
    fold.merge_into(adopted, self);
    EXPECT_EQ(adopted.s_left.base, fold.sn);
    EXPECT_EQ(adopted.s_left.base, scanned.s_left.base);
    EXPECT_FALSE(scanned.s_left.cut());
    EXPECT_FALSE(adopted.s_left.cut());
    EXPECT_EQ(adopted.t_alive, fold.tn);
    EXPECT_EQ(adopted.t_alive, scanned.t_alive);
    EXPECT_EQ(adopted.known, scanned.known);
    EXPECT_EQ(adopted.past_horizon, scanned.past_horizon);
    expect_lattice(adopted, lattice(held, self, by_sender));
  }
}

// Every fold that lacks the merger's current view keeps the scanning rule
// and holds the exact merge, not the fold's objects: the walked fold (no
// own slot, or a stale one from a record that reached its own sender),
// D_coord's coordinator merging reports, dynamic D's stash, and a served
// recipient that sent nothing (the index's fold, with self not heard).
TEST(ProtocolDPhaseCore, FoldWithoutTheOwnViewMergesByScanning) {
  const SharedBits base = shared(70, {1, 2, 30, 64, 65, 69});
  const SharedBits t_all = shared(4, {0, 1, 2, 3});
  const auto msg = [](SView s, SharedBits t, SharedBits known = nullptr) {
    return std::make_shared<AgreeMsg>(1, std::move(s), std::move(t), false, std::move(known));
  };
  const auto check = [](AgreeFold fold, const AgreeView& held, int self,
                        const std::vector<const AgreeMsg*>& by_sender, const char* what) {
    SCOPED_TRACE(what);
    AgreeView merged = held;
    fold.merge_into(merged, self);
    expect_lattice(merged, lattice(held, self, by_sender));
    EXPECT_NE(merged.s_left.flat(), *fold.sn);  // the fold's S would be wrong
  };
  {  // walked: the peers' views only; ours has performed [60, 66)
    const auto a = msg(SView(base), t_all), b = msg(SView(base, 0, 2), nullptr);
    const std::vector<const AgreeMsg*> views{nullptr, a.get(), b.get(), nullptr};
    const AgreeView held{SView(base, 60, 66), nullptr, nullptr};
    check(fold_views(views), held, 0, views, "walked");
  }
  {  // walked with our own earlier view stashed: we have since merged more
    const auto stale = msg(SView(base), nullptr), a = msg(SView(base, 28, 31), t_all);
    const std::vector<const AgreeMsg*> views{stale.get(), a.get(), nullptr, nullptr};
    const AgreeView held{shared(70, {1, 2, 64, 69}), shared(4, {0, 1}), nullptr};
    check(fold_views(views), held, 0, views, "walked, stale own slot");
  }
  {  // D_coord: the coordinator folds the reports of the others
    const auto a = msg(SView(base), shared(4, {1})), b = msg(SView(base), shared(4, {2}));
    const std::vector<const AgreeMsg*> views{nullptr, a.get(), b.get(), nullptr};
    const AgreeView held{shared(70, {2, 64}), shared(4, {0, 3}), nullptr};
    check(fold_views(views), held, 0, views, "coordinator");
  }
  {  // dynamic D: our known set holds arrivals no peer has heard of
    const SharedBits known = shared(70, {1, 2, 30});
    const auto a = msg(SView(base), nullptr, known), b = msg(SView(base, 1, 3), nullptr, known);
    const std::vector<const AgreeMsg*> views{a.get(), nullptr, b.get(), nullptr};
    const AgreeView held{shared(70, {1, 30, 64}), nullptr, shared(70, {1, 2, 30, 64})};
    check(fold_views(views), held, 3, views, "dynamic");
  }
  {  // the index's fold, merged by a recipient whose slot is empty
    const auto a = msg(SView(base), nullptr), b = msg(SView(base), shared(4, {2}));
    const std::vector<const AgreeMsg*> views{nullptr, a.get(), b.get(), nullptr};
    AgreeFold fold = fold_views(views);
    fold.holds_own_view = true;
    const AgreeView held{SView(base, 0, 3), shared(4, {0, 3}), nullptr};
    check(fold, held, 0, views, "served, sent nothing");
  }
}

// A done view is adopted whole, cut included, and the cut reads as the
// bits it stands for.
TEST(ProtocolDPhaseCore, AgreeReceiveAdoptsACutDoneView) {
  const SharedBits base = shared(70, {1, 2, 64, 65, 69});
  const AgreeMsg a(1, shared(70, {1, 2, 64}), shared(4, {1}), false);
  const AgreeMsg d(1, SView(base, 60, 65), shared(4, {0, 2}), true);
  AgreeView v{share_bits(DynBitset(70, true)), shared(4, {3}), nullptr};
  SView& sn = v.s_left;
  SharedBits& tn = v.t_alive;
  SharedBits u = share_bits(DynBitset(4, true));
  bool removed = false;
  EXPECT_TRUE(
      agree_receive(fold_views({nullptr, &a, &d, nullptr}), 3, true, v, u, removed));
  EXPECT_EQ(sn.base, base);
  EXPECT_EQ(sn.lo, 60u);
  EXPECT_EQ(sn.hi, 65u);
  EXPECT_EQ(sn.flat(), bits(70, {1, 2, 65, 69}));
  EXPECT_EQ(sn.count(), 4u);
  EXPECT_EQ(sn.flattened().base->count(), 4u);
  EXPECT_EQ(tn, d.t_alive);
  EXPECT_FALSE(removed);
}

TEST(ProtocolDPhaseCore, EndPhaseRevertsExactlyWhenMoreThanHalfWereLost) {
  const DynBitset left = bits(16, {3, 5});
  const DynBitset alive = bits(8, {1, 4, 6});  // |T| = 3
  PhaseEnd end = end_phase(7, left, alive, 4, Round{10});  // 7 > 2 * 3
  EXPECT_EQ(end.kind, PhaseEnd::Kind::kRevert);
  EXPECT_NE(end.revert, nullptr);
  end = end_phase(6, left, alive, 4, Round{10});  // exactly half: no revert
  EXPECT_EQ(end.kind, PhaseEnd::Kind::kNextPhase);
  EXPECT_EQ(end.revert, nullptr);
  // A revert with nothing left, or for a process outside the agreed T,
  // terminates, as does any phase that leaves S empty.
  EXPECT_EQ(end_phase(7, DynBitset(16), alive, 4, Round{10}).kind, PhaseEnd::Kind::kTerminate);
  EXPECT_EQ(end_phase(7, left, alive, 0, Round{10}).kind, PhaseEnd::Kind::kTerminate);
  EXPECT_EQ(end_phase(3, DynBitset(16), alive, 4, Round{10}).kind, PhaseEnd::Kind::kTerminate);
  EXPECT_EQ(end_phase(3, left, alive, 0, Round{10}).kind, PhaseEnd::Kind::kTerminate);
}

TEST(ProtocolDPhaseCore, RevertToAPerformsRealUnitsAndAddressesRealIds) {
  // S = units {2, 5, 9}, T = {1, 3, 4}: the embedded A runs n = 3 virtual
  // units over ranks {0, 1, 2}.  Self = 1 is rank 0, active at the start.
  const DynBitset s = bits(10, {1, 4, 8});
  const DynBitset alive = bits(5, {1, 3, 4});
  RevertToA revert(s, alive, 1, Round{10});
  std::vector<std::int64_t> performed;
  std::set<int> addressed;
  bool terminated = false;
  for (Round r{10}; !terminated && r < Round{60}; r += 1) {
    const Action a = revert.on_round(RoundContext{r, 1}, InboxView());
    if (a.work) performed.push_back(*a.work);
    for (const Outgoing& o : a.sends)
      o.to.for_each_prefix(SIZE_MAX, [&](int id) { addressed.insert(id); });
    terminated = a.terminate;
  }
  EXPECT_TRUE(terminated);
  EXPECT_EQ(performed, (std::vector<std::int64_t>{2, 5, 9}));
  EXPECT_EQ(addressed, (std::set<int>{3, 4}));  // the other members of T, never ranks
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

// Runs D on the simulator, with the run-shared merge cache or without it
// (every process walks its inbox), serially or on a RoundPool of `threads`
// (min_steps_per_shard = 1, so even t = 12 rounds genuinely shard).
RunMetrics run_d(const DoAllConfig& cfg, std::shared_ptr<AgreeMergeCache> cache,
                 std::unique_ptr<FaultInjector> faults, NetSpec net = {}, int threads = 1) {
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < cfg.t; ++i)
    procs.push_back(std::make_unique<ProtocolDProcess>(cfg, i, cache));
  Simulator::Options opts;
  opts.strict_one_op = true;
  opts.n_units = cfg.n;
  opts.net = std::move(net);
  Simulator sim(std::move(procs), std::move(faults), opts);
  RoundPool pool(threads, 1);
  if (threads > 1) sim.set_step_executor(&pool);
  return sim.run();
}

// Crashes landing in work rounds AND mid-agreement-broadcast (half the
// audience cut), so both receive paths are exercised.
std::unique_ptr<FaultInjector> cut_crashes() {
  return std::make_unique<ScheduledFaults>(std::vector<ScheduledFaults::Entry>{
      {2, 3, CrashPlan{false, 0}},
      {5, 9, CrashPlan{true, 5}},
      {7, 11, CrashPlan{true, 2}},
  });
}

// The run-shared AgreeMergeCache is a pure memoization: with and without
// it, every metric of the run must be identical -- under mid-broadcast
// prefix cuts (cut-out recipients walk), network weather (drops and
// partitions rewrite audiences, latency mixes rounds and phases in one
// ledger), random schedules, and on the round pool.
TEST(ProtocolD, MergeCacheIsObservablyInvisible) {
  const DoAllConfig cfg{96, 12};
  auto cache = std::make_shared<AgreeMergeCache>();
  EXPECT_EQ(substrate::compare_metrics(run_d(cfg, cache, cut_crashes()),
                                       run_d(cfg, nullptr, cut_crashes())),
            "")
      << "prefix cuts";
  // Both receive paths ran.
  EXPECT_GT(cache->served(), 0u);
  EXPECT_GT(cache->walked(), 0u);

  NetSpec net;
  net.lat_min = 1;
  net.lat_max = 2;
  net.drop = 0.02;
  net.partitions = {PartitionWindow{4, 9, 5}};
  net.seed = 3;
  EXPECT_EQ(substrate::compare_metrics(
                run_d(cfg, std::make_shared<AgreeMergeCache>(), cut_crashes(), net),
                run_d(cfg, nullptr, cut_crashes(), net)),
            "")
      << "net=(drop,lat,part)";

  EXPECT_EQ(substrate::compare_metrics(
                run_d(cfg, std::make_shared<AgreeMergeCache>(), cut_crashes(), {}, 2),
                run_d(cfg, nullptr, cut_crashes())),
            "")
      << "RoundPool, sim_threads 2";

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    EXPECT_EQ(substrate::compare_metrics(
                  run_d(cfg, std::make_shared<AgreeMergeCache>(),
                        std::make_unique<RandomFaults>(0.05, 11, seed)),
                  run_d(cfg, nullptr, std::make_unique<RandomFaults>(0.05, 11, seed))),
              "")
        << "seed " << seed;
  }
}

// The fast path cannot switch off silently: in a crash-free run every
// agreement receive is served from the ledger index.
TEST(ProtocolD, CrashFreeRunServesEveryAgreementReceive) {
  const DoAllConfig cfg{64 * 16, 64};
  auto cache = std::make_shared<AgreeMergeCache>();
  const RunMetrics m = run_d(cfg, cache, std::make_unique<NoFaults>());
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(cache->served(), 64u);  // one agreement iteration each
  EXPECT_EQ(cache->walked(), 0u);
}

// Forwards to a process and records the views of every agreement
// broadcast it sends, with the round, the sender and its known_done_units()
// after the step; the recorded views keep each base alive, so equal
// pointers mean one object, never a reused address.
class ViewRecorder final : public IProcess {
 public:
  struct Sent {
    Round round;
    int from;
    int phase;
    SView s;
    SharedBits t;
    std::int64_t known_done;
  };
  ViewRecorder(std::unique_ptr<IProcess> inner, std::vector<Sent>& out)
      : inner_(std::move(inner)), out_(out) {}

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    Action a = inner_->on_round(ctx, inbox);
    for (const Outgoing& o : a.sends)
      if (const auto* m = detail::payload_as<AgreeMsg>(o.payload.get()))
        out_.push_back(
            Sent{ctx.round, ctx.self, m->phase, m->s_left, m->t_alive, inner_->known_done_units()});
    return a;
  }
  Round next_wake(const Round& now) const override { return inner_->next_wake(now); }
  std::int64_t known_done_units() const override { return inner_->known_done_units(); }

 private:
  std::unique_ptr<IProcess> inner_;
  std::vector<Sent>& out_;
};

// Runs `procs`, each wrapped in a ViewRecorder, on the serial simulator and
// returns every agreement broadcast in send order (the serial simulator
// records sends in round order).
std::vector<ViewRecorder::Sent> record_views(const DoAllConfig& cfg,
                                             std::vector<std::unique_ptr<IProcess>> procs,
                                             std::unique_ptr<FaultInjector> faults) {
  std::vector<ViewRecorder::Sent> sent;
  std::vector<std::unique_ptr<IProcess>> wrapped;
  for (auto& p : procs) wrapped.push_back(std::make_unique<ViewRecorder>(std::move(p), sent));
  Simulator::Options opts;
  opts.strict_one_op = true;
  opts.n_units = cfg.n;
  Simulator sim(std::move(wrapped), std::move(faults), opts);
  EXPECT_TRUE(sim.run().all_retired);
  return sent;
}

// Each sender's first broadcast of each phase: its iteration-0 view S \ S'.
std::vector<ViewRecorder::Sent> iteration_zero(const std::vector<ViewRecorder::Sent>& sent) {
  std::set<std::pair<int, int>> seen;
  std::vector<ViewRecorder::Sent> out;
  for (const auto& m : sent)
    if (seen.emplace(m.from, m.phase).second) out.push_back(m);
  return out;
}

// Theorem 4.1's agreement, held once: every served receive merges the one
// fold, so from the second agreement iteration on every survivor
// broadcasts the same S (and T) object rather than an n-bit copy of its own;
// and iteration 0's views are the phase's one S, each cut by its sender's
// slice.
TEST(ProtocolD, ServedSurvivorsBroadcastOneSharedView) {
  const DoAllConfig cfg{64 * 16, 64};
  auto cache = std::make_shared<AgreeMergeCache>();
  const SharedBits all_units = share_bits(DynBitset(static_cast<std::size_t>(cfg.n), true));
  const SharedBits all_procs = share_bits(DynBitset(static_cast<std::size_t>(cfg.t), true));
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < cfg.t; ++i)
    procs.push_back(std::make_unique<ProtocolDProcess>(cfg, i, cache, all_units, all_procs));
  const std::vector<ViewRecorder::Sent> sent =
      record_views(cfg, std::move(procs), std::make_unique<NoFaults>());
  EXPECT_EQ(cache->walked(), 0u);

  // Each phase's first broadcast round is iteration 0, whose views are
  // every process's own S \ S'; every later round must carry one view.
  std::map<int, Round> first_round;
  for (const auto& m : sent) first_round.emplace(m.phase, m.round);
  std::map<Round, std::pair<SharedBits, SharedBits>> view_of_round;
  std::size_t later = 0;
  for (const auto& m : sent) {
    if (m.round == first_round.at(m.phase)) continue;
    ++later;
    const auto& [s, t] = view_of_round.try_emplace(m.round, m.s.base, m.t).first->second;
    EXPECT_EQ(m.s.base, s) << "round " << to_string(m.round);
    EXPECT_EQ(m.s.lo, m.s.hi) << "round " << to_string(m.round);
    EXPECT_EQ(m.t, t) << "round " << to_string(m.round);
  }
  EXPECT_EQ(later, static_cast<std::size_t>(cfg.t));  // everyone's done broadcast

  // Iteration 0: one base per phase, cut by exactly the sender's slice.
  const std::vector<ViewRecorder::Sent> zero = iteration_zero(sent);
  EXPECT_EQ(zero.size(), static_cast<std::size_t>(cfg.t));
  std::map<int, SharedBits> base_of_phase;
  std::vector<std::int64_t> slice;
  for (const auto& m : zero) {
    EXPECT_EQ(m.round, first_round.at(m.phase));
    EXPECT_EQ(m.s.base, base_of_phase.try_emplace(m.phase, m.s.base).first->second)
        << "phase " << m.phase << ", from " << m.from;
    work_slice(*m.s.base, *all_procs, m.from, slice);
    ASSERT_FALSE(slice.empty());
    EXPECT_EQ(m.s.lo, static_cast<std::size_t>(slice.front() - 1)) << "from " << m.from;
    EXPECT_EQ(m.s.hi, static_cast<std::size_t>(slice.back())) << "from " << m.from;
  }
  EXPECT_EQ(base_of_phase.at(1), all_units);
}

// The registry builds a D run's starting (S, T) once: phase 1's iteration-0
// views all cut the same S object.
TEST(ProtocolD, RegistryProcessesStartFromOneST) {
  const DoAllConfig cfg{8 * 16, 8};
  const std::vector<ViewRecorder::Sent> zero = iteration_zero(record_views(
      cfg, make_processes(find_protocol("D"), cfg), std::make_unique<NoFaults>()));
  ASSERT_EQ(zero.size(), static_cast<std::size_t>(cfg.t));
  for (const auto& m : zero) {
    EXPECT_EQ(m.s.base, zero.front().s.base) << "from " << m.from;
    EXPECT_TRUE(m.s.cut()) << "from " << m.from;
  }
}

// Forwards to a ProtocolDProcess and records, for every agreement broadcast
// it sends, the view's T, its loop's u and the audience right after the
// step.
// The records keep both objects alive, so equal pointers mean one object.
class LoopRecorder final : public IProcess {
 public:
  struct Sent {
    Round round;
    int from;
    int phase;
    SharedBits t;  // null = the implicit {from}
    SharedBits u;
    RecipientSet to;
  };
  LoopRecorder(std::unique_ptr<ProtocolDProcess> inner, std::vector<Sent>& out)
      : inner_(std::move(inner)), out_(out) {}

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    Action a = inner_->on_round(ctx, inbox);
    for (const Outgoing& o : a.sends)
      if (const auto* m = detail::payload_as<AgreeMsg>(o.payload.get()))
        out_.push_back(Sent{ctx.round, ctx.self, m->phase, m->t_alive, inner_->loop().u(), o.to});
    return a;
  }
  Round next_wake(const Round& now) const override { return inner_->next_wake(now); }

 private:
  std::unique_ptr<ProtocolDProcess> inner_;
  std::vector<Sent>& out_;
};

// A t = 64 D run on one starting (S, T) and one merge cache, every process
// recorded by a LoopRecorder; returns the agreement broadcasts in send order.
std::vector<LoopRecorder::Sent> record_loops(const DoAllConfig& cfg,
                                             const std::shared_ptr<AgreeMergeCache>& cache,
                                             const SharedBits& all_procs,
                                             std::unique_ptr<FaultInjector> faults) {
  const SharedBits all_units = share_bits(DynBitset(static_cast<std::size_t>(cfg.n), true));
  std::vector<LoopRecorder::Sent> sent;
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < cfg.t; ++i)
    procs.push_back(std::make_unique<LoopRecorder>(
        std::make_unique<ProtocolDProcess>(cfg, i, cache, all_units, all_procs), sent));
  Simulator::Options opts;
  opts.strict_one_op = true;
  opts.n_units = cfg.n;
  Simulator sim(std::move(procs), std::move(faults), opts);
  EXPECT_TRUE(sim.run().all_retired);
  return sent;
}

// Survivors that agree hold no t-bit set of their own: in a failure-free
// run every process's u is the run's one starting T, iteration 0's
// included, and every agreement record aliases that object as its
// audience (u less the sender), with exactly t - 1 members.  Iteration 0's
// views carry T = {self} as no bitset at all, and the done views one
// shared T.
TEST(ProtocolD, FailureFreeSurvivorsShareOneUAndOneAudience) {
  const DoAllConfig cfg{64 * 16, 64};
  auto cache = std::make_shared<AgreeMergeCache>();
  const SharedBits all_procs = share_bits(DynBitset(static_cast<std::size_t>(cfg.t), true));
  const std::vector<LoopRecorder::Sent> sent =
      record_loops(cfg, cache, all_procs, std::make_unique<NoFaults>());
  EXPECT_EQ(cache->walked(), 0u);
  ASSERT_EQ(sent.size(), 2u * static_cast<std::size_t>(cfg.t));  // iteration 0, then done
  for (const LoopRecorder::Sent& m : sent) {
    EXPECT_EQ(m.u, all_procs) << "from " << m.from;
    EXPECT_EQ(m.to.shared_bits(), all_procs) << "from " << m.from;
    EXPECT_EQ(m.to.excluded(), m.from);
    EXPECT_EQ(m.to.size(), static_cast<std::size_t>(cfg.t - 1));
    EXPECT_FALSE(m.to.contains(m.from));
  }
  const std::size_t t = static_cast<std::size_t>(cfg.t);
  for (std::size_t i = 0; i < t; ++i) EXPECT_EQ(sent[i].t, nullptr) << "from " << sent[i].from;
  ASSERT_NE(sent[t].t, nullptr);
  EXPECT_EQ(*sent[t].t, *all_procs);
  for (std::size_t i = t; i < 2 * t; ++i) EXPECT_EQ(sent[i].t, sent[t].t) << "from " << sent[i].from;
}

// A crash in phase 1's work leaves one process silent in iteration 0.
// Every survivor is served, drops it by adopting the fold's heard set, and
// so ends the phase on one u object without it, which its later
// broadcasts alias; each later phase's u is that phase's agreed T, again
// one object.
TEST(ProtocolD, ServedSurvivorsThatDropACrashShareOneU) {
  const DoAllConfig cfg{64 * 16, 64};
  constexpr int kCrashed = 5;
  auto cache = std::make_shared<AgreeMergeCache>();
  const SharedBits all_procs = share_bits(DynBitset(static_cast<std::size_t>(cfg.t), true));
  const std::vector<LoopRecorder::Sent> sent = record_loops(
      cfg, cache, all_procs,
      std::make_unique<ScheduledFaults>(
          std::vector<ScheduledFaults::Entry>{{kCrashed, 3, CrashPlan{false, 0}}}));
  EXPECT_EQ(cache->walked(), 0u);
  DynBitset without_crashed(static_cast<std::size_t>(cfg.t), true);
  without_crashed.reset(kCrashed);
  std::map<int, std::set<SharedBits>> u_of_phase;  // phase 1: all_procs excluded
  std::set<int> droppers;
  for (const LoopRecorder::Sent& m : sent) {
    EXPECT_NE(m.from, kCrashed);
    EXPECT_EQ(m.to.shared_bits(), m.u) << "from " << m.from;
    if (m.phase == 1 && m.u == all_procs) continue;  // iteration 0, before the drop
    EXPECT_FALSE(m.to.contains(kCrashed));
    EXPECT_EQ(*m.u, without_crashed) << "phase " << m.phase << ", from " << m.from;
    EXPECT_EQ(m.to.size(), static_cast<std::size_t>(cfg.t - 2));
    u_of_phase[m.phase].insert(m.u);
    if (m.phase == 1) droppers.insert(m.from);
  }
  EXPECT_EQ(droppers.size(), static_cast<std::size_t>(cfg.t - 1));  // every survivor
  ASSERT_GT(u_of_phase.size(), 1u);
  for (const auto& [phase, us] : u_of_phase) EXPECT_EQ(us.size(), 1u) << "phase " << phase;
}

// known_done_units() reads the cut form; it must count exactly the units
// outside a materialized S \ S' -- at work entry, and in every phase of a
// run whose crashes leave later phases an uneven S.
TEST(ProtocolD, KnownDoneUnitsCountsTheMaterializedCut) {
  const DoAllConfig cfg{64, 8};
  for (int i = 0; i < cfg.t; ++i) {
    ProtocolDProcess p(cfg, i);
    p.on_round(RoundContext{Round{0u}, i}, InboxView{});  // enters the work phase
    DynBitset s(static_cast<std::size_t>(cfg.n), true);
    std::vector<std::int64_t> slice;
    work_slice(s, DynBitset(static_cast<std::size_t>(cfg.t), true), i, slice);
    for (std::int64_t unit : slice) s.reset(static_cast<std::size_t>(unit - 1));
    EXPECT_EQ(p.known_done_units(), cfg.n - static_cast<std::int64_t>(s.count()))
        << "process " << i;
  }

  const DoAllConfig big{96, 12};
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < big.t; ++i) procs.push_back(std::make_unique<ProtocolDProcess>(big, i));
  const std::vector<ViewRecorder::Sent> zero =
      iteration_zero(record_views(big, std::move(procs), cut_crashes()));
  std::set<int> phases;
  for (const auto& m : zero) {
    phases.insert(m.phase);
    EXPECT_EQ(m.known_done, big.n - static_cast<std::int64_t>(m.s.flat().count()))
        << "phase " << m.phase << ", from " << m.from;
  }
  EXPECT_GT(phases.size(), 1u);
}

TEST_P(ProtocolDRandom, RandomSchedulesAlwaysComplete) {
  DoAllConfig cfg{120, 12};
  RunResult r = run_do_all("D", cfg, std::make_unique<RandomFaults>(0.05, 11, GetParam()));
  ASSERT_TRUE(r.ok()) << r.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolDRandom, ::testing::Range(0u, 25u));

// --- the one-fold contract ---------------------------------------------------
//
// AgreeMergeCache indexes each round's broadcast ledger once and serves
// every eligible agreement receive from the index, from any thread, in any
// order.  These tests drive real processes through a hand-built ledger: t
// processes do their one work unit (n = t) in round 0 and broadcast their
// iteration-0 views in round 1; the test assembles round 2's ledger from
// those broadcasts, optionally bent into a shape, and delivers it to each
// recipient twice -- to the cached process and to a cache-free twin that
// always walks.  The two must act identically (the action carries the
// merged views, the done flag, and the silence-pruned audience); the cache's
// counters say which path the cached process took.
struct LedgerFixture {
  static constexpr int t = 12;
  // The members of a set-addressed audience as one bitset.
  static DynBitset members(const RecipientSet& to) {
    DynBitset b(static_cast<std::size_t>(t));
    to.mark_prefix(b, to.size());
    return b;
  }

  static constexpr int silent = 6;  // crashed before broadcasting
  const DoAllConfig cfg{t, t};
  std::shared_ptr<AgreeMergeCache> cache = std::make_shared<AgreeMergeCache>();
  std::vector<std::unique_ptr<ProtocolDProcess>> cached, twins;
  std::vector<DeliveryRecord> ledger;  // delivered in round 2
  std::vector<std::vector<DeliveryRecord>> mailboxes;  // per recipient; empty = read the ledger
  const Round sent{1u};

  // `early_to` (if >= 0) also receives an early phase-1 arrival from sender
  // 9 in round 1, while still in its work phase.
  explicit LedgerFixture(int early_to = -1) {
    for (int i = 0; i < t; ++i) {
      cached.push_back(std::make_unique<ProtocolDProcess>(cfg, i, cache));
      twins.push_back(std::make_unique<ProtocolDProcess>(cfg, i));
    }
    std::vector<DeliveryRecord> early;
    if (early_to >= 0)
      early.push_back(DeliveryRecord{9, MsgKind::kAgreement, 1, early_to,
                                     view(DynBitset(t, true), 9, false), Round{0u}});
    for (int i = 0; i < t; ++i) {
      if (i == silent) continue;
      for (auto* procs : {&cached, &twins}) {
        ProtocolDProcess& p = *(*procs)[static_cast<std::size_t>(i)];
        p.on_round(RoundContext{Round{0u}, i}, InboxView{});
        const bool has_early = i == early_to;
        Action a = p.on_round(RoundContext{Round{1u}, i},
                              InboxView(early, i, has_early));
        if (procs != &cached) continue;
        Outgoing& o = a.sends.at(0);
        const std::size_t cut = o.to.size();
        ledger.push_back(
            DeliveryRecord{i, o.kind, cut, std::move(o.to), std::move(o.payload), sent});
      }
    }
  }

  // A hand-built phase-1 message from `from`: S as given, T = {from}.
  static std::shared_ptr<const AgreeMsg> view(DynBitset s, int from, bool done, int phase = 1) {
    DynBitset tv(t);
    tv.set(static_cast<std::size_t>(from));
    return std::make_shared<AgreeMsg>(phase, share_bits(std::move(s)), share_bits(std::move(tv)),
                                      done);
  }

  DeliveryRecord& record_of(int from) {
    for (DeliveryRecord& r : ledger)
      if (r.from == from) return r;
    throw std::logic_error("no record");
  }
  const AgreeMsg& msg_of(int from) {
    return *detail::payload_as<AgreeMsg>(record_of(from).payload.get());
  }

  std::vector<int> recipients() const {
    std::vector<int> out;
    for (int i = 0; i < t; ++i)
      if (i != silent) out.push_back(i);
    return out;
  }

  // Re-delivers the ledger the way socket workers receive it: each
  // recipient reads its own mailbox of the records that reach it, each
  // re-addressed to it alone (cut = 1), so no mailbox carries its owner's
  // record.  All mailboxes live through the round, so the merge cache
  // sees one vector per address.
  void split_into_mailboxes() {
    mailboxes.assign(t, {});
    for (int self = 0; self < t; ++self)
      for (const DeliveryRecord& r : ledger)
        if (r.delivers_to(self))
          mailboxes[static_cast<std::size_t>(self)].push_back(
              DeliveryRecord{r.from, r.kind, 1, self, r.payload, r.sent});
  }

  Action deliver(int self, bool twin) {
    const std::vector<DeliveryRecord>& recs =
        mailboxes.empty() ? ledger : mailboxes[static_cast<std::size_t>(self)];
    bool any = false;
    for (const DeliveryRecord& r : recs) any = any || r.delivers_to(self);
    ProtocolDProcess& p = *(twin ? twins : cached)[static_cast<std::size_t>(self)];
    return p.on_round(RoundContext{Round{2u}, self}, InboxView(recs, self, any));
  }

  // Delivers to `self`'s cached process and its twin, expects identical
  // actions, and returns whether the cached process walked.
  bool expect_matches_twin(int self, const std::string& why) {
    const std::uint64_t walked_before = cache->walked();
    const Action got = deliver(self, false);
    const bool walked = cache->walked() != walked_before;
    expect_same_action(got, deliver(self, true), why + ", self " + std::to_string(self));
    return walked;
  }

  static void expect_same_action(const Action& got, const Action& want, const std::string& why) {
    EXPECT_EQ(got.terminate, want.terminate) << why;
    ASSERT_EQ(got.sends.size(), want.sends.size()) << why;
    for (std::size_t k = 0; k < got.sends.size(); ++k) {
      const auto* g = detail::payload_as<AgreeMsg>(got.sends[k].payload.get());
      const auto* w = detail::payload_as<AgreeMsg>(want.sends[k].payload.get());
      ASSERT_TRUE(g != nullptr && w != nullptr) << why;
      EXPECT_EQ(g->phase, w->phase) << why;
      EXPECT_EQ(g->s_left.flat(), w->s_left.flat()) << why;
      ASSERT_EQ(g->t_alive == nullptr, w->t_alive == nullptr) << why;
      if (g->t_alive) {
        EXPECT_EQ(*g->t_alive, *w->t_alive) << why;
      }
      EXPECT_EQ(g->done, w->done) << why;
      EXPECT_EQ(members(got.sends[k].to), members(want.sends[k].to)) << why;
    }
  }
};

TEST(ProtocolDParallel, MergeCacheOneFoldMatchesNaiveInAnyOrder) {
  for (bool descending : {false, true}) {
    LedgerFixture fx;
    std::vector<int> order = fx.recipients();
    if (descending) std::reverse(order.begin(), order.end());
    for (int self : order) EXPECT_FALSE(fx.expect_matches_twin(self, "serial order"));
    EXPECT_EQ(fx.cache->served(), order.size());
  }
  // Two serving threads interleaved (even ids here, odd ids there): whoever
  // builds the index, everyone is served the naive result.
  LedgerFixture fx;
  std::vector<Action> got(LedgerFixture::t);
  auto serve_parity = [&](int parity) {
    for (int self : fx.recipients())
      if (self % 2 == parity) got[static_cast<std::size_t>(self)] = fx.deliver(self, false);
  };
  std::thread odd([&] { serve_parity(1); });
  serve_parity(0);
  odd.join();
  for (int self : fx.recipients())
    LedgerFixture::expect_same_action(got[static_cast<std::size_t>(self)], fx.deliver(self, true),
                                      "two threads, self " + std::to_string(self));
  EXPECT_EQ(fx.cache->served(), fx.recipients().size());
  EXPECT_EQ(fx.cache->walked(), 0u);
}

// Every ledger shape the index cannot reproduce for a recipient makes
// exactly that recipient walk; everyone else is still served, and every
// recipient acts as its cache-free twin.
TEST(ProtocolDParallel, MergeCacheDeviationsFallBackUntouched) {
  struct Shape {
    const char* name;
    int early_to;
    std::function<void(LedgerFixture&)> bend;
    std::vector<int> walkers;  // empty = every recipient
  };
  const std::vector<Shape> shapes = {
      {"prefix cut", -1,
       [](LedgerFixture& fx) { fx.record_of(5).cut = 4; },  // reaches 0..3 only
       {4, 7, 8, 9, 10, 11}},
      {"network-dropped recipient", -1,
       [](LedgerFixture& fx) {
         DeliveryRecord& r = fx.record_of(5);
         DynBitset bits = LedgerFixture::members(r.to);
         bits.reset(8);
         r.to = RecipientSet(share_bits(std::move(bits)));
         r.cut = r.to.size();
       },
       {8}},
      {"mixed phases", -1,
       [](LedgerFixture& fx) {
         const AgreeMsg& m = fx.msg_of(5);
         fx.record_of(5).payload = std::make_shared<AgreeMsg>(2, m.s_left, m.t_alive, false);
       },
       {}},
      {"duplicate sender", -1,
       [](LedgerFixture& fx) {
         DeliveryRecord dup = fx.record_of(3);
         dup.payload = LedgerFixture::view(DynBitset(LedgerFixture::t), 3, false);
         fx.ledger.push_back(std::move(dup));
       },
       {}},
      {"self-addressed record", -1,
       [](LedgerFixture& fx) {
         DeliveryRecord& r = fx.record_of(4);
         DynBitset bits = LedgerFixture::members(r.to);
         bits.set(4);
         r.to = RecipientSet(share_bits(std::move(bits)));
         r.cut = r.to.size();
       },
       {4}},
      {"early stash", 2, [](LedgerFixture&) {}, {2}},
      {"own message missing", -1,
       [](LedgerFixture& fx) {
         std::erase_if(fx.ledger, [](const DeliveryRecord& r) { return r.from == 3; });
       },
       {3}},
      // Done views from 2 and 9: their own slots no longer match, so they
      // walk; everyone else is served and adopts 2's view.
      {"done adoption", -1,
       [](LedgerFixture& fx) {
         for (int from : {2, 9}) {
           DynBitset s(LedgerFixture::t);
           s.set(static_cast<std::size_t>(from));
           fx.record_of(from).payload = LedgerFixture::view(std::move(s), from, true);
         }
       },
       {2, 9}},
      // A socket worker's mailbox: indexable, but it never carries the
      // owner's own record, so everyone walks.
      {"one-recipient mailbox", 2, [](LedgerFixture& fx) { fx.split_into_mailboxes(); }, {}},
  };
  for (const Shape& shape : shapes) {
    LedgerFixture fx(shape.early_to);
    shape.bend(fx);
    const std::vector<int> want = shape.walkers.empty() ? fx.recipients() : shape.walkers;
    std::vector<int> walked;
    for (int self : fx.recipients())
      if (fx.expect_matches_twin(self, shape.name)) walked.push_back(self);
    EXPECT_EQ(walked, want) << shape.name;
    EXPECT_EQ(fx.cache->walked(), want.size()) << shape.name;
    EXPECT_EQ(fx.cache->served(), fx.recipients().size() - want.size()) << shape.name;
  }
}

// The index skips ANDing an audience object into its eligible set when the
// previous record already did and that record's sender is a member.  Over
// hand-built ledgers the set must still be the per-record computation: a
// process is eligible iff its own records miss it and every other
// agreement record reaches it.
TEST(ProtocolDParallel, MergeCacheEligibleOverSharedAudiencesMatchesPerRecord) {
  constexpr int t = LedgerFixture::t;
  constexpr int outsider = LedgerFixture::silent;
  DynBitset u(t, true);
  u.reset(outsider);
  const SharedBits shared = share_bits(u);
  const SharedBits equal_copy = share_bits(u);  // same bits, another object
  const SharedBits everyone = share_bits(DynBitset(t, true));
  auto broadcast = [](int from, const SharedBits& aud, std::size_t cut = SIZE_MAX) {
    RecipientSet to(aud, from);
    cut = std::min(cut, to.size());
    return DeliveryRecord{from, MsgKind::kAgreement, cut, std::move(to),
                          LedgerFixture::view(DynBitset(t, true), from, false), Round{1u}};
  };
  auto ledger_of = [&](const std::vector<int>& senders,
                       const std::function<DeliveryRecord(int)>& make) {
    std::vector<DeliveryRecord> recs;
    for (int from : senders) recs.push_back(make(from));
    return recs;
  };
  std::vector<int> members;
  for (int i = 0; i < t; ++i)
    if (i != outsider) members.push_back(i);
  std::vector<int> outsider_first = {outsider};
  outsider_first.insert(outsider_first.end(), members.begin(), members.end());

  const std::vector<std::pair<const char*, std::vector<DeliveryRecord>>> ledgers = {
      {"one shared u", ledger_of(members, [&](int from) { return broadcast(from, shared); })},
      {"sender outside the shared u first",
       ledger_of(outsider_first, [&](int from) { return broadcast(from, shared); })},
      {"alternating equal objects",
       ledger_of(members,
                 [&](int from) { return broadcast(from, from % 2 ? equal_copy : shared); })},
      {"whole set, then the shared u",
       ledger_of(members,
                 [&](int from) { return broadcast(from, from < 3 ? everyone : shared); })},
      {"prefix cut between shared records",
       ledger_of(members,
                 [&](int from) { return broadcast(from, shared, from == 5 ? 4 : SIZE_MAX); })},
  };
  for (const auto& [name, ledger] : ledgers) {
    DynBitset want(t);
    for (int i = 0; i < t; ++i) {
      bool eligible = true;
      for (const DeliveryRecord& r : ledger)
        eligible = eligible && r.delivers_to(i) != (r.from == i);
      if (eligible) want.set(static_cast<std::size_t>(i));
    }
    AgreeMergeCache cache;
    const auto idx = cache.index(Round{2u}, ledger, t);
    ASSERT_TRUE(idx->foldable()) << name;
    EXPECT_EQ(idx->eligible, want) << name;
  }
}

// End to end: the cache under a genuinely sharded simulator round must stay
// observably invisible -- cached + sharded vs walking + serial, identical
// metrics -- including the mid-broadcast cuts that force walks.
TEST(ProtocolDParallel, MergeCacheInvisibleUnderShardedRounds) {
  const DoAllConfig cfg{96, 12};
  const RunMetrics walking_serial = run_d(cfg, nullptr, cut_crashes());
  for (int threads : {2, 4})
    EXPECT_EQ(substrate::compare_metrics(
                  run_d(cfg, std::make_shared<AgreeMergeCache>(), cut_crashes(), {}, threads),
                  walking_serial),
              "")
        << threads << " threads";
}

}  // namespace
}  // namespace dowork
