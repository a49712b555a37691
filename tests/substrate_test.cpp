// The supervised round pool (run_do_all with Backend::kPool,
// src/substrate/substrate.h) against the simulator as differential oracle: metric-for-metric equality
// under the deterministic schedule across protocols and adversaries, paper
// bounds under the free schedule, kill-point accounting, and clean join-all
// teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "harness/bounds.h"
#include "harness/fault_spec.h"
#include "substrate/differential.h"

namespace dowork::substrate {
namespace {

using harness::FaultSpec;

// Options for one run on the supervised pool.
RunOptions pool_options(LiveOptions::Schedule schedule = LiveOptions::Schedule::kDeterministic) {
  RunOptions opts;
  opts.backend = Backend::kPool;
  opts.live.schedule = schedule;
  return opts;
}

// One differential case: sim leg, pool deterministic leg, field-for-field
// equal metrics and both legs verified.
void expect_differential_ok(const std::string& protocol, std::int64_t n, int t,
                            const FaultSpec& spec) {
  DoAllConfig cfg;
  cfg.n = n;
  cfg.t = t;
  DiffResult d = run_differential(protocol, cfg, [&] { return spec.make(); }, pool_options());
  EXPECT_EQ(d.divergence, "") << protocol << " n=" << n << " t=" << t << " faults "
                              << spec.to_string();
  EXPECT_FALSE(d.live.stats.leaked);
  EXPECT_GE(d.live.stats.threads, 2);  // at least two evaluating workers
}

FaultSpec chunk_cascade(std::int64_t n, int t) {
  return FaultSpec::cascade(
      static_cast<std::uint64_t>(ceil_div(n, int_sqrt_ceil(t)) + 1), t - 1, /*prefix=*/1);
}

TEST(SubstrateTest, DifferentialFaultFree) {
  expect_differential_ok("A", 64, 8, FaultSpec::none());
  expect_differential_ok("B", 64, 8, FaultSpec::none());
  expect_differential_ok("C", 32, 8, FaultSpec::none());
  expect_differential_ok("D", 64, 8, FaultSpec::none());
}

TEST(SubstrateTest, DifferentialScriptedCrashes) {
  expect_differential_ok("A", 64, 8, chunk_cascade(64, 8));
  expect_differential_ok("B", 64, 8, chunk_cascade(64, 8));
  expect_differential_ok("C", 32, 8, FaultSpec::cascade(3, 7, /*prefix=*/0));
  // D's crash budget stays under the Theorem 4.1 case-1 majority line.
  expect_differential_ok("D", 64, 8, FaultSpec::cascade(2, 3, /*prefix=*/1));
}

TEST(SubstrateTest, DifferentialAdaptiveAdversaries) {
  // Adaptive strategies derive their choices from observed committed state;
  // the deterministic schedule makes the observations identical on both
  // legs, so even the adversary's decisions replay exactly.
  expect_differential_ok("A", 64, 8, FaultSpec::adaptive("greedy", 7, /*seed=*/3));
  expect_differential_ok("B", 64, 8, FaultSpec::adaptive("chain", 7, /*seed=*/3));
  expect_differential_ok("D", 64, 8, FaultSpec::adaptive("greedy", 3, /*seed=*/3));
}

TEST(SubstrateTest, DifferentialLargerShape) {
  expect_differential_ok("B", 256, 16, chunk_cascade(256, 16));
}

TEST(SubstrateTest, DifferentialRejectsTheSimulatorAsItsLiveLeg) {
  // The oracle leg is always the simulator; a kSim live leg would compare
  // the simulator with itself.
  DoAllConfig cfg;
  cfg.n = 16;
  cfg.t = 4;
  EXPECT_THROW(run_differential("B", cfg, [] { return FaultSpec::none().make(); }, RunOptions{}),
               std::invalid_argument);
}

TEST(SubstrateTest, CompareMetricsReportsFirstDivergence) {
  RunMetrics a;
  a.work_total = 10;
  RunMetrics b = a;
  EXPECT_EQ(compare_metrics(a, b), "");
  b.work_total = 11;
  EXPECT_EQ(compare_metrics(a, b), "work_total: sim=10 live=11");
  b = a;
  b.work_by_proc = {1, 2};
  EXPECT_NE(compare_metrics(a, b), "");
  b = a;
  b.kills.count(KillPoint::kMidBroadcast);
  EXPECT_EQ(compare_metrics(a, b), "kills.mid_broadcast: sim=0 live=1");
  b = a;
  b.crashed_procs = {3};
  EXPECT_EQ(compare_metrics(a, b), "crashed_procs.size: sim=0 live=1");
  a.crashed_procs = {2};
  EXPECT_EQ(compare_metrics(a, b), "crashed_procs[0]: sim=2 live=3");
  b = a;
  b.decisions = {std::nullopt, 5};
  EXPECT_EQ(compare_metrics(a, b), "decisions.size: sim=0 live=2");
  a.decisions = {std::nullopt, std::nullopt};
  EXPECT_EQ(compare_metrics(a, b), "decisions[1]: sim=none live=5");
  a.decisions = {std::nullopt, 4};
  EXPECT_EQ(compare_metrics(a, b), "decisions[1]: sim=4 live=5");
}

TEST(SubstrateTest, KillPointCensusMatchesCrashCount) {
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  const FaultSpec spec = chunk_cascade(cfg.n, cfg.t);
  RunResult r = run_do_all("B", cfg, spec.make(), pool_options());
  ASSERT_EQ(r.violation, "");
  EXPECT_GT(r.metrics.crashes, 0u);
  EXPECT_EQ(r.metrics.kills.total(), r.metrics.crashes);
  EXPECT_FALSE(r.stats.leaked);
}

TEST(SubstrateTest, MidBroadcastKillsCutDeliveries) {
  // prefix=1 on a multi-recipient broadcast classifies as a mid-broadcast
  // kill (one send escaped, the rest were cut).  The cascade adversary
  // always crashes on work actions, so script the crash instead: sweep
  // proc 0's first few non-idle actions -- B's early schedule includes
  // checkpoint broadcasts to its sqrt(t) group -- until one lands on a
  // multi-recipient send.
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  bool saw_mid_broadcast = false;
  for (std::uint64_t nth = 1; nth <= 12 && !saw_mid_broadcast; ++nth) {
    ScheduledFaults::Entry e;
    e.proc = 0;
    e.on_nth_action = nth;
    e.plan.work_completes = true;
    e.plan.deliver_prefix = 1;
    RunResult r = run_do_all("B", cfg, FaultSpec::scheduled({e}).make(), pool_options());
    ASSERT_EQ(r.violation, "") << "nth=" << nth;
    saw_mid_broadcast = r.metrics.kills.mid_broadcast > 0;
  }
  EXPECT_TRUE(saw_mid_broadcast);
}

TEST(SubstrateTest, PoolThreadCountIsMeasured) {
  // The live pool sizes itself from the machine, never from a knob: one
  // worker per hardware thread, and two at the least.
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  RunResult r = run_do_all("A", cfg, FaultSpec::none().make(), pool_options());
  ASSERT_EQ(r.violation, "");
  EXPECT_EQ(r.stats.threads, std::max(2, static_cast<int>(std::thread::hardware_concurrency())));
}

TEST(SubstrateTest, ThroughputIsMeasured) {
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  RunResult r = run_do_all("B", cfg, FaultSpec::none().make(), pool_options());
  ASSERT_EQ(r.violation, "");
  EXPECT_GT(r.stats.wall_seconds, 0.0);
  EXPECT_GT(r.stats.units_per_sec, 0.0);
}

// Free schedule: commits land in completion order, so the OS scheduler is a
// real adversary and metric equality with the sim is not expected -- but the
// paper's theorem bounds and the verifier must hold on every execution.
void expect_free_schedule_within_bounds(const std::string& protocol, std::int64_t n, int t,
                                        const FaultSpec& spec, int crash_budget) {
  DoAllConfig cfg;
  cfg.n = n;
  cfg.t = t;
  RunResult r =
      run_do_all(protocol, cfg, spec.make(), pool_options(LiveOptions::Schedule::kFree));
  ASSERT_EQ(r.violation, "") << protocol << " free schedule";
  EXPECT_FALSE(r.stats.leaked);
  const RunMetrics& m = r.metrics;
  for (const auto& [key, val] : harness::paper_bounds(protocol, n, t, crash_budget)) {
    const auto bound = static_cast<std::uint64_t>(val);
    if (key.rfind("bound_work", 0) == 0) {
      EXPECT_LE(m.work_total, bound) << protocol << " " << key;
    } else if (key.rfind("bound_msgs", 0) == 0) {
      EXPECT_LE(m.messages_total, bound) << protocol << " " << key;
    } else if (key.rfind("bound_rounds", 0) == 0) {
      EXPECT_TRUE(m.last_retire_round <= Round(bound)) << protocol << " " << key;
    }
  }
}

TEST(SubstrateTest, FreeScheduleSatisfiesPaperBounds) {
  expect_free_schedule_within_bounds("A", 64, 8, chunk_cascade(64, 8), 7);
  expect_free_schedule_within_bounds("B", 64, 8, chunk_cascade(64, 8), 7);
  expect_free_schedule_within_bounds("D", 64, 8, FaultSpec::cascade(2, 3, 1), 3);
}

// Every process retires in round 0; process 0 sleeps first.
class RetireProcess final : public IProcess {
 public:
  explicit RetireProcess(bool slow) : slow_(slow) {}
  Action on_round(const RoundContext&, const InboxView&) override {
    if (slow_) std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Action a;
    a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  bool slow_;
};

// Never crashes anyone; logs the process of every commit, in commit order.
class CommitLog final : public FaultInjector {
 public:
  explicit CommitLog(std::vector<int>* order) : order_(order) {}
  std::optional<CrashPlan> inspect(int proc, const Round&, const Action&,
                                   const SimSnapshot&) override {
    order_->push_back(proc);
    return std::nullopt;
  }

 private:
  std::vector<int>* order_;
};

std::vector<int> commit_order(LiveOptions::Schedule schedule) {
  ProtocolInfo info;
  info.name = "slow_first_fixture";
  info.sequential = false;
  info.strict_one_op = false;
  info.make_proc = [](const DoAllConfig&, int self) -> std::unique_ptr<IProcess> {
    return std::make_unique<RetireProcess>(self == 0);
  };
  DoAllConfig cfg;
  cfg.n = 4;
  cfg.t = 4;
  std::vector<int> order;
  const RunResult r =
      run_do_all(info, cfg, std::make_unique<CommitLog>(&order), pool_options(schedule));
  EXPECT_FALSE(r.metrics.aborted) << r.metrics.aborted_reason;
  return order;
}

TEST(SubstrateTest, FreeScheduleCommitsASlowLowIdStepLast) {
  // The live pool's workers claim one step apiece, so while one sleeps on
  // process 0 the others commit 1..3: under the free schedule process 0
  // commits last, under the deterministic one it still commits first.
  const std::vector<int> ascending = {0, 1, 2, 3};
  EXPECT_EQ(commit_order(LiveOptions::Schedule::kDeterministic), ascending);
  std::vector<int> free = commit_order(LiveOptions::Schedule::kFree);
  ASSERT_EQ(free.size(), ascending.size());
  EXPECT_EQ(free.back(), 0);
  std::sort(free.begin(), free.end());
  EXPECT_EQ(free, ascending);
}

}  // namespace
}  // namespace dowork::substrate
