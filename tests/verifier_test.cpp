// verify_run's invariant checks and, in particular, the network-weather
// waiver: the sequentiality invariant is a theorem about reliable delivery,
// so it is waived exactly when a net_* counter is nonzero -- while the
// completion and unit-coverage requirements survive any weather.
#include "core/verifier.h"

#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/work.h"
#include "sim/metrics.h"

namespace dowork {
namespace {

DoAllConfig config(std::int64_t n, int t) {
  DoAllConfig cfg;
  cfg.n = n;
  cfg.t = t;
  return cfg;
}

ProtocolInfo sequential_info() {
  ProtocolInfo info;
  info.name = "test_seq";
  info.sequential = true;
  return info;
}

ProtocolInfo concurrent_info() {
  ProtocolInfo info;
  info.name = "test_conc";
  info.sequential = false;
  return info;
}

// A run that satisfies every requirement for config(n, t).
RunMetrics clean_metrics(std::int64_t n) {
  RunMetrics m;
  m.all_retired = true;
  m.unit_multiplicity.assign(static_cast<std::size_t>(n), 1);
  m.max_concurrent_workers = 1;
  return m;
}

TEST(VerifierTest, CleanRunPasses) {
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), clean_metrics(4)), "");
}

TEST(VerifierTest, RoundCapIsReportedFirst) {
  // A capped run is a non-result: the cap outranks every other diagnosis,
  // including deadlock and missing retirement.
  RunMetrics m = clean_metrics(4);
  m.hit_round_cap = true;
  m.deadlocked = true;
  m.all_retired = false;
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), m),
            "run hit the stepped-round cap");
}

TEST(VerifierTest, DeadlockOutranksUnretired) {
  RunMetrics m = clean_metrics(4);
  m.deadlocked = true;
  m.all_retired = false;
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), m),
            "run deadlocked: live processes with no timers or messages");
}

TEST(VerifierTest, UnretiredProcessesFail) {
  RunMetrics m = clean_metrics(4);
  m.all_retired = false;
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), m),
            "run ended with unretired processes");
}

TEST(VerifierTest, MisconfiguredMultiplicityVectorFails) {
  RunMetrics m = clean_metrics(3);  // one slot short for n = 4
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), m),
            "metrics not configured with n units");
}

TEST(VerifierTest, MissedUnitIsNamedOneIndexed) {
  RunMetrics m = clean_metrics(4);
  m.unit_multiplicity[2] = 0;  // unit 3 in the paper's 1..n numbering
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), m),
            "unit 3 was never performed");
}

TEST(VerifierTest, SequentialOverlapFailsWithoutWeather) {
  RunMetrics m = clean_metrics(4);
  m.max_concurrent_workers = 3;
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), m),
            "sequential protocol had 3 concurrent workers");
}

TEST(VerifierTest, ConcurrentProtocolMayOverlap) {
  RunMetrics m = clean_metrics(4);
  m.max_concurrent_workers = 2;
  EXPECT_EQ(verify_run(concurrent_info(), config(4, 2), m), "");
}

TEST(VerifierTest, SequentialityWaivedIffSomeNetCounterNonzero) {
  // Each of the three weather counters alone waives the overlap invariant;
  // with all three zero the same run fails it.
  for (int which = 0; which < 3; ++which) {
    RunMetrics m = clean_metrics(4);
    m.max_concurrent_workers = 2;
    if (which == 0) m.net_dropped = 1;
    if (which == 1) m.net_blocked = 1;
    if (which == 2) m.net_delayed = 1;
    EXPECT_EQ(verify_run(sequential_info(), config(4, 2), m), "")
        << "counter " << which << " should waive sequentiality";
  }
  RunMetrics calm = clean_metrics(4);
  calm.max_concurrent_workers = 2;
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), calm),
            "sequential protocol had 2 concurrent workers");
}

TEST(VerifierTest, WeatherDoesNotWaiveCompletionOrCoverage) {
  // Drops and partitions excuse overlap, never an incomplete run: a dropped
  // delivery that starves a unit must still fail coverage...
  RunMetrics m = clean_metrics(4);
  m.net_dropped = 7;
  m.unit_multiplicity[0] = 0;
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), m),
            "unit 1 was never performed");

  // ...and a partition that wedges the run must still fail completion.
  RunMetrics blocked = clean_metrics(4);
  blocked.net_blocked = 3;
  blocked.all_retired = false;
  EXPECT_EQ(verify_run(sequential_info(), config(4, 2), blocked),
            "run ended with unretired processes");
}

TEST(VerifierTest, OutcomeCheckReplacesTheEveryUnitRule) {
  RunMetrics m = clean_metrics(4);
  m.unit_multiplicity[2] = 0;
  // Without a hook the every-unit rule applies...
  ProtocolInfo info = sequential_info();
  EXPECT_EQ(verify_run(info, config(4, 2), m), "unit 3 was never performed");
  // ...with one, its verdict stands instead, whatever units went undone.
  info.check_outcome = [](const RunMetrics&) { return std::string(); };
  EXPECT_EQ(verify_run(info, config(4, 2), m), "");
  info.check_outcome = [](const RunMetrics& r) {
    return r.crashed_procs.empty() ? std::string("nobody crashed") : std::string();
  };
  EXPECT_EQ(verify_run(info, config(4, 2), m), "nobody crashed");
  m.crashed_procs = {1};
  EXPECT_EQ(verify_run(info, config(4, 2), m), "");
  // The completion rules still come first and sequentiality still applies.
  m.max_concurrent_workers = 2;
  EXPECT_EQ(verify_run(info, config(4, 2), m), "sequential protocol had 2 concurrent workers");
  m.all_retired = false;
  EXPECT_EQ(verify_run(info, config(4, 2), m), "run ended with unretired processes");
}

}  // namespace
}  // namespace dowork
