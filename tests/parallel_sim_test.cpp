// The round-parallel core's determinism proof harness (sim/round_pool.h).
//
// Two layers:
//   * RoundPoolTest -- the pool against a fake StepEval: ordered commit
//     (ascending id, whatever thread evaluated what), genuine cross-thread
//     evaluation (a gated eval that cannot finish until two shards run
//     concurrently -- also the TSan workout), the inline small-round path,
//     the abort contract (first failure in shard order, nothing appended),
//     and the supervised pool's free schedule, watchdog and cancel token.
//   * ParallelSimTest -- the real simulator serial vs --sim-threads {2,4,8}:
//     metric-for-metric and report-byte equality over fuzz-generator-sampled
//     (protocol x shape x FaultSpec) cases, and targeted Protocol D runs
//     where a mid-broadcast prefix cut straddles a shard boundary (the
//     delivery-plane case the ordered commit must reproduce exactly).
#include "sim/round_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "fuzz/generator.h"
#include "fuzz/trace.h"
#include "harness/fault_spec.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "substrate/substrate.h"

namespace dowork {
namespace {

using harness::Scenario;
using harness::ScenarioResult;
using harness::Substrate;

// A StepEval that records who evaluated what; optionally throws on a chosen
// proc, optionally refuses to let any evaluation finish until `gate` distinct
// procs have *started* (forcing real concurrency, with a deadline so a
// regression fails instead of hanging).
class RecordingEval final : public StepEval {
 public:
  Action eval_step(int proc) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      order.push_back(proc);
      threads.insert(std::this_thread::get_id());
    }
    started.fetch_add(1);
    if (gate > 0) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (started.load() < gate && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    }
    if (proc == fail_on || proc == also_fail_on) throw std::runtime_error(std::to_string(proc));
    Action a;
    a.work = proc + 1;
    return a;
  }

  int gate = 0;
  int fail_on = -1;
  int also_fail_on = -1;
  std::atomic<int> started{0};
  std::mutex mu_;
  std::vector<int> order;                  // eval order across all threads
  std::set<std::thread::id> threads;       // who served
};

std::vector<int> iota_steps(int n) {
  std::vector<int> steps;
  for (int i = 0; i < n; ++i) steps.push_back(i);
  return steps;
}

TEST(RoundPoolTest, CommitsInAscendingIdOrder) {
  RecordingEval eval;
  RoundPool pool(4, /*min_steps_per_shard=*/1);
  const std::vector<int> steps = iota_steps(64);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  ASSERT_EQ(out.size(), steps.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].proc, steps[i]);
    ASSERT_TRUE(out[i].action.work.has_value());
    EXPECT_EQ(*out[i].action.work, steps[i] + 1);
  }
  // Every step evaluated exactly once (in whatever cross-shard interleaving).
  std::vector<int> sorted = eval.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, steps);
}

TEST(RoundPoolTest, ShardsEvaluateOnDistinctThreadsConcurrently) {
  // Two shards of 8; the gate keeps every evaluation spinning until both
  // shards have started, and a thread cannot claim its second shard before
  // finishing its first -- so passing the gate REQUIRES the worker thread
  // to serve the other shard.  (On timeout the gate opens and the
  // two-threads assertion below fails instead of hanging the suite.)
  RecordingEval eval;
  eval.gate = 2;
  RoundPool pool(2, /*min_steps_per_shard=*/1);
  const std::vector<int> steps = iota_steps(16);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  ASSERT_EQ(out.size(), steps.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].proc, steps[i]);
  EXPECT_EQ(eval.threads.size(), 2u);
  // Non-contiguous ids partition by position, not value: still ascending.
  eval.order.clear();
  eval.started.store(0);
  std::vector<int> odd;
  for (int i = 0; i < 16; ++i) odd.push_back(2 * i + 1);
  std::vector<StepExecutor::Ready> out2;
  pool.run_steps(eval, Round{2u}, odd, out2);
  ASSERT_EQ(out2.size(), odd.size());
  for (std::size_t i = 0; i < out2.size(); ++i) EXPECT_EQ(out2[i].proc, odd[i]);
}

TEST(RoundPoolTest, SmallRoundsRunInlineOnTheCallingThread) {
  // Below 2x min_steps_per_shard the dispatch is skipped entirely: one
  // serving thread (this one), serial order.
  RecordingEval eval;
  RoundPool pool(8);  // default min_steps_per_shard = 8
  const std::vector<int> steps = iota_steps(10);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  ASSERT_EQ(out.size(), steps.size());
  EXPECT_EQ(eval.order, steps);
  ASSERT_EQ(eval.threads.size(), 1u);
  EXPECT_EQ(*eval.threads.begin(), std::this_thread::get_id());
}

TEST(RoundPoolTest, AbortSurfacesFirstFailureInShardOrderWithNothingAppended) {
  // Failures land in shard 0 (proc 3) and shard 2 (proc 20); the serial
  // loop would have hit proc 3 first, so that is the one the pool must
  // rethrow -- with `out` untouched, per the executor contract.
  RecordingEval eval;
  eval.fail_on = 20;
  eval.also_fail_on = 3;
  RoundPool pool(4, /*min_steps_per_shard=*/1);
  const std::vector<int> steps = iota_steps(32);
  std::vector<StepExecutor::Ready> out;
  try {
    pool.run_steps(eval, Round{1u}, steps, out);
    FAIL() << "expected the shard failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_TRUE(out.empty());
  // The pool survives an aborted round: the next round runs normally.
  eval.fail_on = -1;
  eval.also_fail_on = -1;
  pool.run_steps(eval, Round{2u}, steps, out);
  EXPECT_EQ(out.size(), steps.size());
}

// --- the supervised pool: free schedule and watchdog ------------------------

// Step `sleeper` sleeps before returning; the `wedged` steps block until
// their worker's run is cancelled (the cooperative contract for stuck
// protocol code).  Every other step returns at once.
class SlowEval final : public StepEval {
 public:
  Action eval_step(int proc) override {
    if (proc == sleeper) std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (wedged.count(proc))
      while (!run_cancelled()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Action::none();
  }

  int sleeper = -1;
  std::set<int> wedged;
};

std::vector<int> procs_of(const std::vector<StepExecutor::Ready>& out) {
  std::vector<int> procs;
  for (const StepExecutor::Ready& r : out) procs.push_back(r.proc);
  return procs;
}

TEST(RoundPoolTest, FreeScheduleReturnsInCompletionOrder) {
  // The smallest supervised pool, two workers: one sleeps on step 0 while
  // the other claims and finishes every later step, so the free schedule
  // hands step 0 back last.
  SlowEval eval;
  eval.sleeper = 0;
  const std::vector<int> steps = iota_steps(4);
  substrate::LiveOptions live;
  live.schedule = substrate::LiveOptions::Schedule::kFree;
  RoundPool pool(1, live);
  EXPECT_EQ(pool.threads(), 2);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  ASSERT_EQ(out.size(), steps.size());
  EXPECT_EQ(out.back().proc, 0);
  std::vector<int> sorted = procs_of(out);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, steps);
}

TEST(RoundPoolTest, DeterministicScheduleKeepsAscendingOrder) {
  // The same round on a supervised pool with the deterministic schedule:
  // ascending id whatever the completion order.
  SlowEval eval;
  eval.sleeper = 0;
  const std::vector<int> steps = iota_steps(4);
  substrate::LiveOptions live;
  live.schedule = substrate::LiveOptions::Schedule::kDeterministic;
  RoundPool pool(1, live);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  EXPECT_EQ(procs_of(out), steps);
}

TEST(RoundPoolTest, WedgedOneStepRoundTripsTheWatchdog) {
  // A one-step round is still dispatched, so the calling thread keeps the
  // deadline while the wedged step holds its worker.  The abort names the
  // proc, appends nothing, and the cancelled worker joins at shutdown.
  // The stalled worker reads eval and steps until it notices the cancel,
  // so both are declared before (and outlive) the pool.
  SlowEval eval;
  eval.wedged = {5};
  const std::vector<int> steps = {5};
  substrate::LiveOptions live;
  live.watchdog_ms = 100;
  RoundPool pool(2, live);
  std::vector<StepExecutor::Ready> out;
  const auto start = std::chrono::steady_clock::now();
  try {
    pool.run_steps(eval, Round{7u}, steps, out);
    FAIL() << "expected the watchdog to abort the round";
  } catch (const AbortRun& abort) {
    EXPECT_NE(abort.reason.find("first stalled: proc 5"), std::string::npos) << abort.reason;
    EXPECT_EQ(abort.detail, "cause=watchdog proc=5 missing=1 round=7 deadline_ms=100");
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(30));
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(pool.shutdown());  // the wedge honored the cancel: no leak
}

TEST(RoundPoolTest, WatchdogCountsTheStepsAWedgeHoldsBack) {
  // Two workers claim steps in ascending order: step 0 finishes, steps 1
  // and 2 wedge both workers, so step 3 is never claimed.  The abort names
  // the first stalled proc and counts all three unfinished steps.
  SlowEval eval;
  eval.wedged = {1, 2};
  const std::vector<int> steps = iota_steps(4);
  substrate::LiveOptions live;
  live.watchdog_ms = 500;
  RoundPool pool(2, live);
  std::vector<StepExecutor::Ready> out;
  try {
    pool.run_steps(eval, Round{3u}, steps, out);
    FAIL() << "expected the watchdog to abort the round";
  } catch (const AbortRun& abort) {
    EXPECT_EQ(abort.detail, "cause=watchdog proc=1 missing=3 round=3 deadline_ms=500");
  }
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(pool.shutdown());
}

TEST(RoundPoolTest, SupervisedPoolEvaluatesOffTheCallingThread) {
  // Unsupervised, a one-step round runs inline; supervised, even that step
  // goes to a worker so the caller is free to keep the deadline.
  RecordingEval eval;
  substrate::LiveOptions live;
  RoundPool pool(2, live);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, {3}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].proc, 3);
  ASSERT_EQ(eval.threads.size(), 1u);
  EXPECT_NE(*eval.threads.begin(), std::this_thread::get_id());
}

TEST(RoundPoolTest, ShutdownReportsALeakWhenAStepIgnoresCancellation) {
  // The step sleeps past both the deadline and the join grace without
  // polling run_cancelled(): shutdown must give up on its worker and say
  // so.  The detached worker still touches the pool, the eval and the step
  // list, so all three stay pinned (reachable from statics) for the rest
  // of the process.
  static SlowEval* const eval = new SlowEval;
  eval->sleeper = 0;
  static const std::vector<int>* const steps = new std::vector<int>{0};
  substrate::LiveOptions live;
  live.watchdog_ms = 20;
  live.join_grace_ms = 20;
  static RoundPool* const pool = new RoundPool(2, live);
  std::vector<StepExecutor::Ready> out;
  EXPECT_THROW(pool->run_steps(*eval, Round{1u}, *steps, out), AbortRun);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(pool->shutdown());
  EXPECT_FALSE(pool->shutdown());  // idempotent
}

TEST(RoundPoolTest, OnRetireCountsTheKillCensus) {
  RoundPool pool(1);
  pool.on_retire(0, ProcState::kCrashed, KillPoint::kSendCommit);
  pool.on_retire(1, ProcState::kCrashed, KillPoint::kMidBroadcast);
  pool.on_retire(2, ProcState::kCrashed, KillPoint::kMidBroadcast);
  pool.on_retire(3, ProcState::kCrashed, KillPoint::kRoundBarrier);
  pool.on_retire(4, ProcState::kTerminated, KillPoint::kNone);
  EXPECT_EQ(pool.kills().send_commit, 1u);
  EXPECT_EQ(pool.kills().mid_broadcast, 2u);
  EXPECT_EQ(pool.kills().round_barrier, 1u);
  EXPECT_EQ(pool.kills().total(), 4u);
}

TEST(RoundPoolTest, RunCancelledFalseOutsideWorkers) {
  // The main thread (and the serial simulator) never has a token.
  EXPECT_FALSE(run_cancelled());
}

TEST(RoundPoolTest, RunCancelledTracksInstalledToken) {
  CancelToken token;
  detail::set_cancel_token(&token);
  EXPECT_FALSE(run_cancelled());
  token.cancel();
  EXPECT_TRUE(run_cancelled());
  detail::set_cancel_token(nullptr);
  EXPECT_FALSE(run_cancelled());
}

// --- the real simulator: serial vs sharded, byte for byte -------------------

void expect_metrics_eq(const RunMetrics& a, const RunMetrics& b, const std::string& label) {
  EXPECT_EQ(a.work_total, b.work_total) << label;
  EXPECT_EQ(a.messages_total, b.messages_total) << label;
  EXPECT_EQ(a.last_retire_round, b.last_retire_round) << label;
  EXPECT_EQ(a.available_processor_steps, b.available_processor_steps) << label;
  EXPECT_EQ(a.messages_by_kind, b.messages_by_kind) << label;
  EXPECT_EQ(a.crashes, b.crashes) << label;
  EXPECT_EQ(a.terminated, b.terminated) << label;
  EXPECT_EQ(a.stepped_rounds, b.stepped_rounds) << label;
  EXPECT_EQ(a.fast_forward_jumps, b.fast_forward_jumps) << label;
  EXPECT_EQ(a.max_concurrent_workers, b.max_concurrent_workers) << label;
  EXPECT_EQ(a.net_dropped, b.net_dropped) << label;
  EXPECT_EQ(a.net_blocked, b.net_blocked) << label;
  EXPECT_EQ(a.net_delayed, b.net_delayed) << label;
  EXPECT_EQ(a.unit_multiplicity, b.unit_multiplicity) << label;
  EXPECT_EQ(a.work_by_proc, b.work_by_proc) << label;
  EXPECT_EQ(a.messages_by_proc, b.messages_by_proc) << label;
}

// Mid-broadcast prefix cuts straddling shard boundaries: t = 32 at
// sim_threads = 4 shards the agreement rounds into runs of 8 ids, and the
// cuts deliver prefixes of 17 and 9 recipients -- so the delivered/lost
// split lands *inside* shards 2 and 1 respectively, on both sides of a
// boundary.  The ordered commit must reproduce the serial ledger exactly;
// every observable metric, per-process and per-unit, is compared.
TEST(ParallelSimTest, MidBroadcastCutStraddlingShardBoundary) {
  const DoAllConfig cfg{128, 32};  // n/t = 4 work rounds, then agreement
  auto faults = [] {
    return std::make_unique<ScheduledFaults>(std::vector<ScheduledFaults::Entry>{
        // Action 5 is the first agreement broadcast (after 4 work units):
        // proc 10 reaches 17 of its 31 recipients, proc 27 reaches 9.
        {10, 5, CrashPlan{false, 17}},
        {27, 6, CrashPlan{false, 9}},
        // And one work-round death for the redistribution path.
        {3, 2, CrashPlan{true, 0}},
    });
  };
  RunOptions serial;
  const RunResult base = run_do_all("D", cfg, faults(), serial);
  ASSERT_TRUE(base.ok()) << base.violation;
  for (int threads : {2, 4, 8}) {
    RunOptions opts;
    opts.sim_threads = threads;
    const RunResult got = run_do_all("D", cfg, faults(), opts);
    ASSERT_TRUE(got.ok()) << got.violation;
    expect_metrics_eq(got.metrics, base.metrics, "sim_threads=" + std::to_string(threads));
  }
}

// The adaptive/random injectors draw from the committed-state window at the
// commit boundary, so their decision streams must be untouched by sharding.
TEST(ParallelSimTest, RandomFaultScheduleIsThreadCountInvariant) {
  const DoAllConfig cfg{192, 24};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    RunOptions serial;
    const RunResult base =
        run_do_all("D", cfg, std::make_unique<RandomFaults>(0.05, 11, seed), serial);
    for (int threads : {2, 8}) {
      RunOptions opts;
      opts.sim_threads = threads;
      const RunResult got =
          run_do_all("D", cfg, std::make_unique<RandomFaults>(0.05, 11, seed), opts);
      expect_metrics_eq(got.metrics, base.metrics,
                        "seed " + std::to_string(seed) + " threads " + std::to_string(threads));
      EXPECT_EQ(got.violation, base.violation);
    }
  }
}

// Adaptive adversaries read announced_progress at each commit.  The executor
// path evaluates the whole round first, so without the held pre-evaluation
// values the jammer saw later processes' post-step progress and jammed
// differently.  Minimal reproducer from the seed-2 pool-vs-serial fuzz
// campaign (now `dowork_fuzz --seed 2 --cases 5300 --diff pool`; case 5252,
// run seed 248697620): serial did 8 units of
// work, the pool 12.  Serial, RoundPool(1) and a genuinely sharded
// RoundPool(2) must agree on every metric and on the whole decision trace.
TEST(ParallelSimTest, AdaptiveAdversarySeesSerialProgressOnTheExecutorPath) {
  const DoAllConfig cfg{4, 4};
  const harness::FaultSpec spec =
      harness::FaultSpec::parse("adaptive:jammer(crashes=0,jam=8,seed=512927)");
  struct Leg {
    RunMetrics metrics;
    fuzz::Trace trace;
  };
  auto run_leg = [&](int pool_threads) {  // 0 = the serial in-place loop
    Leg leg;
    Simulator::Options opts;
    opts.strict_one_op = true;
    opts.n_units = cfg.n;
    Simulator sim(make_processes(find_protocol("B"), cfg),
                  std::make_unique<fuzz::RecordingFaults>(spec.make(), &leg.trace), opts);
    RoundPool pool(std::max(pool_threads, 1), /*min_steps_per_shard=*/1);
    if (pool_threads > 0) sim.set_step_executor(&pool);
    leg.metrics = sim.run();
    return leg;
  };
  const Leg serial = run_leg(0);
  EXPECT_EQ(serial.metrics.work_total, 8u);
  EXPECT_FALSE(serial.trace.message_faults.empty());
  for (int threads : {1, 2}) {
    const Leg pooled = run_leg(threads);
    const std::string label = "RoundPool(" + std::to_string(threads) + ")";
    expect_metrics_eq(pooled.metrics, serial.metrics, label);
    EXPECT_EQ(pooled.trace, serial.trace) << label;
  }
}

// Property layer: fuzz-generator-sampled (protocol x shape x FaultSpec --
// crash cascades, adaptive adversaries, network weather) sync cases, run
// serial and at --sim-threads {2,4,8}; the whole report -- every row, every
// column, every bound margin -- must serialize to identical bytes.
TEST(ParallelSimTest, FuzzSampledCasesReportByteIdentical) {
  const fuzz::GeneratorOptions gopts{20260809, 100};
  const std::vector<Scenario> cases = fuzz::generate_cases(gopts, 80);
  int used = 0;
  for (const Scenario& base : cases) {
    if (base.substrate != Substrate::kSync) continue;
    if (used == 24) break;
    ++used;
    const std::vector<ScenarioResult> serial_rows = harness::run_scenario("pp", base);
    const std::string serial_json = harness::to_json("pp", serial_rows, false);
    for (int threads : {2, 4, 8}) {
      Scenario s = base;
      s.sim_threads = threads;
      const std::vector<ScenarioResult> rows = harness::run_scenario("pp", s);
      EXPECT_EQ(harness::to_json("pp", rows, false), serial_json)
          << base.id << " sim_threads=" << threads;
    }
  }
  // The generator's mix must actually feed the property: if sync cases dry
  // up the test would silently assert nothing.
  EXPECT_EQ(used, 24);
}

}  // namespace
}  // namespace dowork
