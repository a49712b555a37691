// The supervised round pool (run_live_do_all, src/substrate/substrate.h)
// against the simulator as differential oracle: metric-for-metric equality
// under the deterministic schedule across protocols and adversaries, paper
// bounds under the free schedule, kill-point accounting, and clean join-all
// teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
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

// One differential case: sim leg, pool deterministic leg, field-for-field
// equal metrics and both legs verified.
void expect_differential_ok(const std::string& protocol, std::int64_t n, int t,
                            const FaultSpec& spec) {
  DoAllConfig cfg;
  cfg.n = n;
  cfg.t = t;
  DiffResult d = run_differential(protocol, cfg, [&] { return spec.make(); });
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
}

TEST(SubstrateTest, KillPointCensusMatchesCrashCount) {
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  const FaultSpec spec = chunk_cascade(cfg.n, cfg.t);
  LiveRunResult r = run_live_do_all("B", cfg, spec.make());
  ASSERT_EQ(r.run.violation, "");
  EXPECT_GT(r.run.metrics.crashes, 0u);
  EXPECT_EQ(r.stats.kills.total(), r.run.metrics.crashes);
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
    LiveRunResult r = run_live_do_all("B", cfg, FaultSpec::scheduled({e}).make());
    ASSERT_EQ(r.run.violation, "") << "nth=" << nth;
    saw_mid_broadcast = r.stats.kills.mid_broadcast > 0;
  }
  EXPECT_TRUE(saw_mid_broadcast);
}

TEST(SubstrateTest, PoolThreadCountIsMeasured) {
  // The live pool sizes itself from the machine, never from a knob: one
  // worker per hardware thread, and two at the least.
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  LiveRunResult r = run_live_do_all("A", cfg, FaultSpec::none().make());
  ASSERT_EQ(r.run.violation, "");
  EXPECT_EQ(r.stats.threads, std::max(2, static_cast<int>(std::thread::hardware_concurrency())));
}

TEST(SubstrateTest, ThroughputIsMeasured) {
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  LiveRunResult r = run_live_do_all("B", cfg, FaultSpec::none().make());
  ASSERT_EQ(r.run.violation, "");
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
  LiveOptions live;
  live.schedule = LiveOptions::Schedule::kFree;
  LiveRunResult r = run_live_do_all(protocol, cfg, spec.make(), RunOptions{}, live);
  ASSERT_EQ(r.run.violation, "") << protocol << " free schedule";
  EXPECT_FALSE(r.stats.leaked);
  const RunMetrics& m = r.run.metrics;
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
  LiveOptions live;
  live.schedule = schedule;
  std::vector<int> order;
  const LiveRunResult r =
      run_live_do_all(info, cfg, std::make_unique<CommitLog>(&order), RunOptions{}, live);
  EXPECT_FALSE(r.run.metrics.aborted) << r.run.metrics.aborted_reason;
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
