// Golden regression values: the failure-free run of every protocol on a
// fixed instance (n=48, t=9) is fully deterministic, so its exact metrics
// pin down the implementation.  Any refactor that changes checkpoint
// cadence, timeout formulas, agreement round structure or deadline shapes
// shows up here first -- with values that can be re-derived from the paper:
//
//   baseline_all        t*n work, no messages, n rounds
//   baseline_checkpoint n work, n*(t-1)-ish checkpoints, work+ckpt rounds
//   A / B               n work; process 0 full-run checkpoint pattern:
//                       9 partial (subchunks) + chunk-boundary fulls; B adds
//                       nothing without failures (no probes)
//   C                   n + redone tail; ~2 messages per unit + polls;
//                       exponential last deadline (512-bit exact)
//   D                   n work, 2t(t-1) agreement messages, n/t + 2 rounds
//   D_coord             n work, 2(t-1) messages, n/t + constant rounds
#include <gtest/gtest.h>

#include "core/runner.h"

namespace dowork {
namespace {

struct Golden {
  const char* protocol;
  std::uint64_t work;
  std::uint64_t messages;
  const char* rounds;  // decimal, exact (0-based last retirement round)
};

// Names the CTest by its row, e.g. "GetParam() = A work=48 messages=48
// rounds=68", not by the struct's raw bytes (string pointers included).
void PrintTo(const Golden& g, std::ostream* os) {
  *os << g.protocol << " work=" << g.work << " messages=" << g.messages << " rounds=" << g.rounds;
}

class GoldenFailureFree : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenFailureFree, ExactMetricsOnFixedInstance) {
  const Golden& g = GetParam();
  DoAllConfig cfg{48, 9};
  RunResult r = run_do_all(g.protocol, cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, g.work);
  EXPECT_EQ(r.metrics.messages_total, g.messages);
  EXPECT_EQ(r.metrics.last_retire_round.to_string(), g.rounds);
  EXPECT_EQ(r.metrics.crashes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, GoldenFailureFree,
    ::testing::Values(
        Golden{"baseline_all", 432, 0, "47"},
        Golden{"baseline_checkpoint", 48, 384, "96"},
        Golden{"A", 48, 48, "68"},
        Golden{"B", 48, 48, "68"},
        Golden{"C", 54, 122, "394299154575543238773"},
        Golden{"C_batch", 84, 82, "722881783394214084685"},
        Golden{"naive_C", 76, 76, "115642835633287680942631221253776606815"},
        Golden{"D", 48, 144, "7"},
        Golden{"D_coord", 48, 16, "14"}),
    [](const auto& info) { return std::string(info.param.protocol); });

// A second instance shape (non-square t, n not divisible) to pin the
// generalized geometry.
TEST(GoldenFailureFree, NonSquareInstanceStaysDeterministic) {
  DoAllConfig cfg{50, 7};
  RunResult a1 = run_do_all("A", cfg, std::make_unique<NoFaults>());
  RunResult a2 = run_do_all("A", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(a1.metrics.work_total, 50u);
  EXPECT_EQ(a1.metrics.messages_total, a2.metrics.messages_total);
  EXPECT_EQ(a1.metrics.last_retire_round, a2.metrics.last_retire_round);
}

}  // namespace
}  // namespace dowork
