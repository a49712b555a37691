// Tests for the dynamic-workload extension of Protocol D (work arriving at
// individual sites over time, not initially common knowledge).
#include <gtest/gtest.h>

#include "dynamic/dynamic_d.h"
#include "sim/simulator.h"
#include "substrate/differential.h"

namespace dowork {
namespace {

DynamicConfig three_batches(int t) {
  DynamicConfig cfg;
  cfg.t = t;
  cfg.max_units = 30;
  cfg.horizon = 60;
  cfg.arrivals = {
      {0, 0, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
      {12, 1 % t, {11, 12, 13, 14, 15, 16, 17, 18, 19, 20}},
      {30, 2 % t, {21, 22, 23, 24, 25, 26, 27, 28, 29, 30}},
  };
  return cfg;
}

TEST(DynamicConfig, ValidationCatchesBadSchedules) {
  DynamicConfig cfg;
  cfg.t = 2;
  cfg.max_units = 4;
  cfg.horizon = 10;
  cfg.arrivals = {{3, 0, {1, 1}}};  // duplicate unit
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.arrivals = {{12, 0, {1}}};  // arrival past the horizon
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.arrivals = {{3, 5, {1}}};  // bad proc
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(DynamicD, FailureFreePerformsEverythingExactlyOnce) {
  DynamicConfig cfg = three_batches(5);
  DynamicRunResult r = run_dynamic_do_all(cfg, std::make_unique<NoFaults>());
  EXPECT_TRUE(r.metrics.all_retired);
  EXPECT_TRUE(r.all_known_work_done);
  EXPECT_TRUE(r.lost_units.empty());
  EXPECT_EQ(r.metrics.work_total, 30u);  // no redo without failures
  for (std::size_t u = 0; u < 30; ++u) EXPECT_EQ(r.metrics.unit_multiplicity[u], 1u) << u;
}

TEST(DynamicD, WorkArrivingMidPhaseIsPickedUpNextPhase) {
  DynamicConfig cfg;
  cfg.t = 3;
  cfg.max_units = 6;
  cfg.horizon = 40;
  cfg.arrivals = {{0, 0, {1, 2, 3}}, {2, 1, {4, 5, 6}}};  // second batch lands mid-phase-1
  DynamicRunResult r = run_dynamic_do_all(cfg, std::make_unique<NoFaults>());
  EXPECT_TRUE(r.all_known_work_done);
  EXPECT_EQ(r.metrics.work_total, 6u);
}

// Unit ids need not arrive in order.  Phase 2 works {1, 3, 5, 7} while
// {2, 4, 6, 8}, arrived mid-phase-1, are not yet agreed: each slice's id
// range holds units of the later batch, which S \ S' must not clear.
TEST(DynamicD, InterleavedIdsArrivingLaterAreStillPerformed) {
  DynamicConfig cfg;
  cfg.t = 2;
  cfg.max_units = 8;
  cfg.horizon = 30;
  cfg.arrivals = {{0, 0, {1, 3, 5, 7}}, {2, 1, {2, 4, 6, 8}}};
  DynamicRunResult r = run_dynamic_do_all(cfg, std::make_unique<NoFaults>());
  EXPECT_TRUE(r.all_known_work_done);
  EXPECT_EQ(r.metrics.work_total, 8u);
  for (std::size_t u = 0; u < 8; ++u) EXPECT_EQ(r.metrics.unit_multiplicity[u], 1u) << u;
}

// Dynamic D announces the units its view holds done (process.h's
// observability accessor, which progress-watching adversaries read): none
// at the start, and after the last agreement all 30, of which each process
// performed only its own slices.
TEST(DynamicD, KnownDoneUnitsCountsTheAgreedDoneUnits) {
  const auto schedule = std::make_shared<const DynamicConfig>(three_batches(3));
  std::vector<std::unique_ptr<IProcess>> procs;
  std::vector<const IProcess*> views;
  for (int i = 0; i < schedule->t; ++i) {
    procs.push_back(std::make_unique<DynamicDProcess>(schedule, i));
    views.push_back(procs.back().get());
    EXPECT_EQ(views.back()->known_done_units(), 0);
  }
  Simulator::Options opts;
  opts.n_units = schedule->max_units;
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), opts);
  ASSERT_EQ(sim.run().work_total, 30u);
  for (const IProcess* p : views) EXPECT_EQ(p->known_done_units(), 30);
}

TEST(DynamicD, SingleProcess) {
  DynamicConfig cfg;
  cfg.t = 1;
  cfg.max_units = 5;
  cfg.horizon = 20;
  cfg.arrivals = {{0, 0, {1, 2}}, {7, 0, {3, 4, 5}}};
  DynamicRunResult r = run_dynamic_do_all(cfg, std::make_unique<NoFaults>());
  EXPECT_TRUE(r.all_known_work_done);
  EXPECT_EQ(r.metrics.messages_total, 0u);
}

TEST(DynamicD, CrashesDoNotLoseAnnouncedWork) {
  DynamicConfig cfg = three_batches(6);
  // Crash processes 3..5 (never arrival sites) spread over the run.
  std::vector<ScheduledFaults::Entry> entries{{3, 2, CrashPlan{true, 0}},
                                              {4, 6, CrashPlan{false, 1}},
                                              {5, 10, CrashPlan{true, 2}}};
  DynamicRunResult r =
      run_dynamic_do_all(cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  EXPECT_TRUE(r.metrics.all_retired);
  EXPECT_TRUE(r.all_known_work_done);
  EXPECT_TRUE(r.lost_units.empty());
  EXPECT_EQ(r.metrics.crashes, 3u);
  // Redo bounded: crashed slices redone at most once each here.
  EXPECT_LE(r.metrics.work_total, 30u + 3u * 10u);
}

TEST(DynamicD, ArrivalSiteCrashingBeforePropagationLosesOnlyItsFreshUnits) {
  DynamicConfig cfg;
  cfg.t = 4;
  cfg.max_units = 8;
  cfg.horizon = 50;
  cfg.arrivals = {{0, 0, {1, 2, 3, 4}}, {20, 2, {5, 6, 7, 8}}};
  // Process 2 receives the second batch around round 20 and is crashed on
  // its next non-idle action before it can gossip the batch... its earlier
  // actions already happened, so schedule a late crash: its 30th action.
  std::vector<ScheduledFaults::Entry> entries{{2, 12, CrashPlan{true, 0}}};
  DynamicRunResult r =
      run_dynamic_do_all(cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  EXPECT_TRUE(r.metrics.all_retired);
  // Whatever was lost must be exactly (a subset of) the crashed site's
  // fresh batch, and the loss is flagged as legitimate.
  EXPECT_TRUE(r.all_known_work_done);
  for (std::int64_t u : r.lost_units) EXPECT_GE(u, 5);
  // The first batch is never lost.
  for (int u = 0; u < 4; ++u) EXPECT_GE(r.metrics.unit_multiplicity[u], 1u);
}

class DynamicDRandom : public ::testing::TestWithParam<unsigned> {};

TEST_P(DynamicDRandom, RandomCrashesNeverLoseAnnouncedWork) {
  DynamicConfig cfg = three_batches(8);
  DynamicRunResult r =
      run_dynamic_do_all(cfg, std::make_unique<RandomFaults>(0.04, 5, GetParam()));
  EXPECT_TRUE(r.metrics.all_retired);
  EXPECT_TRUE(r.all_known_work_done) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicDRandom, ::testing::Range(0u, 20u));

// The run goes through run_do_all, so the round pool and the supervised pool
// (deterministic schedule) must reproduce the serial run: every metric, the
// recorded crashes included, and the lost units.  Seed 1 crashes 5 of 8
// processes and loses 10 units at crashed sites.
TEST(DynamicD, RoundPoolAndSupervisedPoolMatchTheSerialRun) {
  auto faults = [] { return std::make_unique<RandomFaults>(0.04, 5, 1); };
  const DynamicRunResult serial = run_dynamic_do_all(three_batches(8), faults());
  ASSERT_EQ(serial.violation, "");
  ASSERT_EQ(serial.metrics.crashed_procs.size(), 5u);
  RunOptions threads;
  threads.sim_threads = 4;
  RunOptions pool;
  pool.backend = Backend::kPool;
  for (const RunOptions& opts : {threads, pool}) {
    const DynamicRunResult r = run_dynamic_do_all(three_batches(8), faults(), opts);
    EXPECT_EQ(substrate::compare_metrics(serial.metrics, r.metrics), "");
    EXPECT_EQ(r.lost_units, serial.lost_units);
    EXPECT_EQ(r.all_known_work_done, serial.all_known_work_done);
    EXPECT_EQ(r.violation, serial.violation);
  }
}

// Byte referees for dynamic D's agreement.  The properties above hold for
// many implementations; these pin the exact metrics of the implementation
// they were captured from, so a refactor of the phase loop must reproduce
// every run.  The sweep reaches both hazards of sharing D's loop: slices
// whose position range holds units outside the slice (an arrival site
// crashed before it gossiped, so its unit ids sit between known ranges),
// and phase ends that lose more than half of T (dynamic D never reverts to
// Protocol A).

// Six batches of 2t consecutive ids, one every 9 rounds, at sites 3b mod t.
DynamicConfig sweep_batches(int t) {
  DynamicConfig cfg;
  cfg.t = t;
  cfg.max_units = 12 * static_cast<std::int64_t>(t);
  cfg.horizon = 62;
  std::int64_t next = 1;
  for (int b = 0; b < 6; ++b) {
    Arrival a{static_cast<std::uint64_t>(9 * b), (3 * b) % t, {}};
    for (int k = 0; k < 2 * t; ++k) a.units.push_back(next++);
    cfg.arrivals.push_back(std::move(a));
  }
  return cfg;
}

TEST(DynamicDPinned, SeededSweepMetricsDigest) {
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a over every run's metrics
  std::uint64_t work = 0, lost = 0;
  auto mix = [&digest](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;
    }
  };
  for (int t : {4, 8, 16}) {
    const DynamicConfig cfg = sweep_batches(t);
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      const DynamicRunResult r =
          run_dynamic_do_all(cfg, std::make_unique<RandomFaults>(0.05, t - 1, seed));
      ASSERT_TRUE(r.metrics.all_retired && r.all_known_work_done) << "t " << t << " seed " << seed;
      mix(r.metrics.work_total);
      mix(r.metrics.messages_total);
      mix(r.metrics.last_retire_round.to_u64_saturating());
      mix(r.lost_units.size());
      work += r.metrics.work_total;
      lost += r.lost_units.size();
    }
  }
  EXPECT_EQ(work, 33303u);
  EXPECT_EQ(lost, 36432u);
  EXPECT_EQ(digest, 8733179509404007846u);
}

// DynamicDRandom's seed 1, whose T shrinks from 7 processes to 3 in phase 3.
TEST(DynamicDPinned, RandomSeedOneMetrics) {
  const DynamicRunResult r =
      run_dynamic_do_all(three_batches(8), std::make_unique<RandomFaults>(0.04, 5, 1));
  EXPECT_EQ(r.metrics.work_total, 20u);
  EXPECT_EQ(r.metrics.messages_total, 534u);
  EXPECT_EQ(r.metrics.last_retire_round.to_u64_saturating(), 63u);
  EXPECT_EQ(r.metrics.crashes, 5u);
  EXPECT_EQ(r.lost_units.size(), 10u);
}

}  // namespace
}  // namespace dowork
