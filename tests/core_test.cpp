// Tests for the core harness: registry, runner, verifier, and the small
// arithmetic helpers in core/work.h.
#include <gtest/gtest.h>

#include "core/runner.h"

namespace dowork {
namespace {

TEST(Work, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(Work, IntSqrtCeil) {
  EXPECT_EQ(int_sqrt_ceil(1), 1);
  EXPECT_EQ(int_sqrt_ceil(2), 2);
  EXPECT_EQ(int_sqrt_ceil(4), 2);
  EXPECT_EQ(int_sqrt_ceil(5), 3);
  EXPECT_EQ(int_sqrt_ceil(9), 3);
  EXPECT_EQ(int_sqrt_ceil(10), 4);
  EXPECT_EQ(int_sqrt_ceil(100), 10);
  EXPECT_EQ(int_sqrt_ceil(101), 11);
}

TEST(Work, Pow2Helpers) {
  EXPECT_EQ(pow2_ceil(1), 1);
  EXPECT_EQ(pow2_ceil(2), 2);
  EXPECT_EQ(pow2_ceil(3), 4);
  EXPECT_EQ(pow2_ceil(17), 32);
  EXPECT_EQ(log2_of_pow2(1), 0);
  EXPECT_EQ(log2_of_pow2(32), 5);
}

TEST(Work, ConfigValidation) {
  EXPECT_THROW(DoAllConfig({0, 4}).validate(), std::invalid_argument);
  EXPECT_THROW(DoAllConfig({4, 0}).validate(), std::invalid_argument);
  EXPECT_NO_THROW(DoAllConfig({1, 1}).validate());
}

TEST(Registry, ContainsAllPaperProtocols) {
  for (const char* name :
       {"baseline_all", "baseline_checkpoint", "A", "B", "C", "C_batch", "naive_C", "D"}) {
    const ProtocolInfo& info = find_protocol(name);
    EXPECT_EQ(info.name, name);
    ASSERT_TRUE(info.make_proc != nullptr);
  }
}

TEST(Registry, SequentialFlagsMatchTheProtocols) {
  EXPECT_FALSE(find_protocol("baseline_all").sequential);
  EXPECT_FALSE(find_protocol("D").sequential);
  for (const char* name : {"baseline_checkpoint", "A", "B", "C", "C_batch", "naive_C"})
    EXPECT_TRUE(find_protocol(name).sequential) << name;
}

TEST(Registry, UnknownProtocolThrows) {
  EXPECT_THROW(find_protocol("protocol_x"), std::invalid_argument);
}

TEST(Registry, MakeProcessesBuildsTDistinctProcesses) {
  DoAllConfig cfg{10, 5};
  auto procs = make_processes(find_protocol("A"), cfg);
  EXPECT_EQ(procs.size(), 5u);
  for (const auto& p : procs) EXPECT_NE(p, nullptr);
}

// A param needs a parameterized factory whether a run builds one process
// (a socket worker) or all of them, and D's whole-run factory does not
// lift the rule.
TEST(Registry, ParamIsRejectedWithoutAParameterizedFactory) {
  const DoAllConfig cfg{10, 5};
  for (const char* name : {"A", "D"}) {
    const ProtocolInfo& info = find_protocol(name);
    ASSERT_FALSE(info.make_proc_param) << name;
    EXPECT_THROW(make_process(info, cfg, 0, 3), std::invalid_argument) << name;
    EXPECT_THROW(make_processes(info, cfg, 3), std::invalid_argument) << name;
  }
  const ProtocolInfo& ckpt = find_protocol("baseline_checkpoint");
  EXPECT_NE(make_process(ckpt, cfg, 4, 3), nullptr);
  EXPECT_EQ(make_processes(ckpt, cfg, 3).size(), 5u);
}

TEST(Verifier, FlagsMissingUnits) {
  DoAllConfig cfg{3, 2};
  RunMetrics m;
  m.all_retired = true;
  m.unit_multiplicity = {1, 0, 1};
  std::string v = verify_run(find_protocol("A"), cfg, m);
  EXPECT_NE(v.find("unit 2"), std::string::npos);
}

TEST(Verifier, FlagsDeadlock) {
  DoAllConfig cfg{1, 1};
  RunMetrics m;
  m.deadlocked = true;
  m.unit_multiplicity = {1};
  EXPECT_NE(verify_run(find_protocol("A"), cfg, m).find("deadlock"), std::string::npos);
}

TEST(Verifier, FlagsConcurrentWorkersForSequentialProtocols) {
  DoAllConfig cfg{2, 2};
  RunMetrics m;
  m.all_retired = true;
  m.unit_multiplicity = {1, 1};
  m.max_concurrent_workers = 2;
  EXPECT_FALSE(verify_run(find_protocol("A"), cfg, m).empty());
  EXPECT_TRUE(verify_run(find_protocol("D"), cfg, m).empty());  // D is parallel
}

TEST(Verifier, FlagsRoundCap) {
  DoAllConfig cfg{1, 1};
  RunMetrics m;
  m.hit_round_cap = true;
  m.unit_multiplicity = {1};
  EXPECT_FALSE(verify_run(find_protocol("A"), cfg, m).empty());
}

TEST(Verifier, AcceptsCleanRun) {
  DoAllConfig cfg{2, 3};
  RunMetrics m;
  m.all_retired = true;
  m.unit_multiplicity = {1, 2};
  m.max_concurrent_workers = 1;
  EXPECT_TRUE(verify_run(find_protocol("A"), cfg, m).empty());
}

TEST(Runner, ByNameAndByInfoAgree) {
  DoAllConfig cfg{12, 4};
  RunResult a = run_do_all("A", cfg, std::make_unique<NoFaults>());
  RunResult b = run_do_all(find_protocol("A"), cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.metrics.work_total, b.metrics.work_total);
  EXPECT_EQ(a.metrics.messages_total, b.metrics.messages_total);
}

TEST(Runner, InvalidConfigThrows) {
  EXPECT_THROW(run_do_all("A", DoAllConfig{0, 4}, std::make_unique<NoFaults>()),
               std::invalid_argument);
}

TEST(Runner, RoundCapSurfacesAsViolation) {
  DoAllConfig cfg{1000, 10};
  RunOptions opts;
  opts.max_stepped_rounds = 5;  // absurdly small
  RunResult r = run_do_all("A", cfg, std::make_unique<NoFaults>(), opts);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.metrics.hit_round_cap);
}

TEST(Metrics, SummaryMentionsKeyNumbers) {
  RunMetrics m;
  m.work_total = 42;
  m.messages_total = 7;
  m.unit_multiplicity = {1};
  m.all_retired = true;
  std::string s = m.summary();
  EXPECT_NE(s.find("work=42"), std::string::npos);
  EXPECT_NE(s.find("msgs=7"), std::string::npos);
  EXPECT_NE(s.find("effort=49"), std::string::npos);
}

}  // namespace
}  // namespace dowork
