#include "async/protocol_a_async.h"

#include <gtest/gtest.h>

namespace dowork {
namespace {

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

std::unique_ptr<FaultInjector> schedule(std::vector<ScheduledFaults::Entry> entries) {
  return std::make_unique<ScheduledFaults>(std::move(entries));
}

void expect_work_and_message_bounds(const DoAllConfig& cfg, const AsyncMetrics& m) {
  const std::int64_t n_prime = std::max(cfg.n, static_cast<std::int64_t>(cfg.t));
  const std::int64_t s = int_sqrt_ceil(cfg.t);
  EXPECT_TRUE(m.all_retired);
  EXPECT_TRUE(m.all_units_done());
  // Same Theorem 2.3 bounds as the synchronous protocol: asynchrony changes
  // timing, never effort.
  EXPECT_LE(m.work_total, 3 * u(n_prime) + u(cfg.t));
  EXPECT_LE(m.messages_total, 9 * u(cfg.t) * u(s) + 9 * u(s) * u(s));
}

TEST(AsyncProtocolA, FailureFreeCompletes) {
  DoAllConfig cfg{64, 16};
  AsyncSim::Options opts;
  opts.seed = 1;
  AsyncMetrics m = run_async_protocol_a(cfg, opts);
  expect_work_and_message_bounds(cfg, m);
  EXPECT_EQ(m.work_total, 64u);  // process 0 never yields
  EXPECT_EQ(m.crashes, 0u);
}

TEST(AsyncProtocolA, TakeoverIsDrivenByTheDetectorNotDeadlines) {
  DoAllConfig cfg{32, 9};
  AsyncSim::Options opts;
  opts.seed = 2;
  opts.fd_max_delay = 50;
  // Process 0 dies on its 5th action.
  AsyncMetrics m = run_async_protocol_a(cfg, opts, schedule({{0, 5, CrashPlan{true, 0}}}));
  expect_work_and_message_bounds(cfg, m);
  EXPECT_EQ(m.crashes, 1u);
  EXPECT_GT(m.fd_notices, 0u);
}

TEST(AsyncProtocolA, CascadeOfCrashes) {
  DoAllConfig cfg{40, 8};
  AsyncSim::Options opts;
  opts.seed = 3;
  std::vector<ScheduledFaults::Entry> crashes;
  // Each process dies shortly after becoming active (if it ever does).
  for (int p = 0; p < cfg.t - 1; ++p) crashes.push_back({p, 3, CrashPlan{true, 1}});
  AsyncMetrics m = run_async_protocol_a(cfg, opts, schedule(std::move(crashes)));
  expect_work_and_message_bounds(cfg, m);
  EXPECT_EQ(m.crashes, u(cfg.t - 1));
}

class AsyncDelaySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AsyncDelaySweep, CompletionIsDelayInvariant) {
  // Whatever delays the adversary picks for messages and detector latency,
  // the protocol completes with the same effort bounds.
  DoAllConfig cfg{48, 12};
  AsyncSim::Options opts;
  opts.seed = GetParam();
  opts.min_delay = 1 + GetParam() % 3;
  opts.max_delay = 5 + 17 * (GetParam() % 4);
  opts.fd_max_delay = 7 + 23 * (GetParam() % 3);
  std::vector<ScheduledFaults::Entry> crashes;
  for (int p = 0; p < cfg.t - 1; p += 2)
    crashes.push_back({p, 1 + GetParam() % 7, CrashPlan{(GetParam() % 2) == 0, GetParam() % 3}});
  AsyncMetrics m = run_async_protocol_a(cfg, opts, schedule(std::move(crashes)));
  expect_work_and_message_bounds(cfg, m);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncDelaySweep, ::testing::Range(0u, 24u));

TEST(AsyncProtocolA, SingleProcess) {
  DoAllConfig cfg{5, 1};
  AsyncSim::Options opts;
  AsyncMetrics m = run_async_protocol_a(cfg, opts);
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(m.work_total, 5u);
  EXPECT_EQ(m.messages_total, 0u);
}

}  // namespace
}  // namespace dowork
