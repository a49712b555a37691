// Watchdog supervision on the live round pool (run_live_do_all over
// sim/round_pool.h): a deliberately-wedged process must produce a
// structured abort within the round deadline -- never a hung run -- and
// teardown must join every worker (no thread leak) when the wedge honors
// cooperative cancellation.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "harness/fault_spec.h"
#include "sim/round_pool.h"
#include "substrate/substrate.h"

namespace dowork::substrate {
namespace {

// Spins inside on_round forever; a std::thread cannot be killed from
// outside, so the only exit is the cooperative cancel token the watchdog
// trips (the documented contract for long-running protocol code).
class WedgedProcess final : public IProcess {
 public:
  Action on_round(const RoundContext&, const InboxView&) override {
    while (!run_cancelled()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Action::none();
  }
  Round next_wake(const Round& now) const override { return now; }
  std::string describe() const override { return "wedged"; }
};

// Retires immediately: the other workers must not keep the run going.
class QuitterProcess final : public IProcess {
 public:
  Action on_round(const RoundContext&, const InboxView&) override {
    Action a;
    a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }
};

ProtocolInfo wedge_protocol(int wedged_proc) {
  ProtocolInfo info;
  info.name = "wedge_fixture";
  info.sequential = false;
  info.strict_one_op = false;
  info.make_proc = [wedged_proc](const DoAllConfig&, int self) -> std::unique_ptr<IProcess> {
    if (self == wedged_proc) return std::make_unique<WedgedProcess>();
    return std::make_unique<QuitterProcess>();
  };
  return info;
}

TEST(WatchdogTest, WedgedWorkerAbortsStructurally) {
  DoAllConfig cfg;
  cfg.n = 4;
  cfg.t = 4;
  LiveOptions live;
  live.watchdog_ms = 200;
  live.join_grace_ms = 10'000;

  const auto start = std::chrono::steady_clock::now();
  LiveRunResult r =
      run_live_do_all(wedge_protocol(/*wedged_proc=*/2), cfg, harness::FaultSpec::none().make(),
                      RunOptions{}, live);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Structured degradation, not a hang: aborted metrics, the reason naming
  // the watchdog and the stalled process, and the verifier surfacing it.
  EXPECT_TRUE(r.run.metrics.aborted);
  EXPECT_NE(r.run.metrics.aborted_reason.find("watchdog"), std::string::npos)
      << r.run.metrics.aborted_reason;
  EXPECT_NE(r.run.metrics.aborted_reason.find("proc 2"), std::string::npos)
      << r.run.metrics.aborted_reason;
  EXPECT_EQ(r.run.metrics.abort_detail.rfind("cause=watchdog proc=2 missing=", 0), 0u)
      << r.run.metrics.abort_detail;
  EXPECT_NE(r.run.metrics.abort_detail.find(" deadline_ms=200"), std::string::npos)
      << r.run.metrics.abort_detail;
  EXPECT_NE(r.run.violation.find("aborted"), std::string::npos) << r.run.violation;

  // The cooperative wedge honors cancellation: every worker joined, nothing
  // leaked, and the whole run finished well under CTest scale.
  EXPECT_FALSE(r.stats.leaked);
  EXPECT_GE(r.stats.threads, 2);
  EXPECT_LT(elapsed, std::chrono::seconds(60));
}

TEST(WatchdogTest, HealthyRunNeverTripsTheWatchdog) {
  // All-quitter control: the same deadline, no wedge, clean verdict.
  DoAllConfig cfg;
  cfg.n = 4;
  cfg.t = 4;
  LiveOptions live;
  live.watchdog_ms = 200;
  LiveRunResult r = run_live_do_all(wedge_protocol(/*wedged_proc=*/-1), cfg,
                                    harness::FaultSpec::none().make(), RunOptions{}, live);
  EXPECT_FALSE(r.run.metrics.aborted);
  EXPECT_FALSE(r.stats.leaked);
}

TEST(WatchdogTest, AbortCommitsNothingFromTheStalledRound) {
  // The wedge stalls round 0, so no work at all commits: the abort happens
  // before any of the round's evaluations are handed back.
  DoAllConfig cfg;
  cfg.n = 4;
  cfg.t = 2;
  LiveOptions live;
  live.watchdog_ms = 200;
  LiveRunResult r = run_live_do_all(wedge_protocol(/*wedged_proc=*/0), cfg,
                                    harness::FaultSpec::none().make(), RunOptions{}, live);
  EXPECT_TRUE(r.run.metrics.aborted);
  EXPECT_EQ(r.run.metrics.work_total, 0u);
  EXPECT_EQ(r.run.metrics.messages_total, 0u);
  EXPECT_FALSE(r.stats.leaked);
}

}  // namespace
}  // namespace dowork::substrate
