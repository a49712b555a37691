// The shared bound-formula oracle (src/harness/bounds.h): exact values at
// the boundary shapes the formulas are most often evaluated at, so a
// refactor of the arithmetic cannot silently shift a bound the tournament,
// the protocol families, and the fuzz campaign all assert.
#include "harness/bounds.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fuzz/generator.h"
#include "harness/experiments.h"

namespace dowork::harness {
namespace {

std::map<std::string, std::int64_t> bounds_of(const std::string& protocol, std::int64_t n,
                                              int t, int crash_budget) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [key, value] : paper_bounds(protocol, n, t, crash_budget)) out[key] = value;
  return out;
}

TEST(BoundsTest, ProtocolAAtTOne) {
  // t = 1: sqrt ceil is 1, so msgs <= 9, rounds <= n + 3.
  const auto b = bounds_of("A", 5, 1, 0);
  EXPECT_EQ(b.at("bound_work_3n"), 15);
  EXPECT_EQ(b.at("bound_msgs"), 9);
  EXPECT_EQ(b.at("bound_rounds"), 5 * 1 + 3 * 1);
}

TEST(BoundsTest, ProtocolAAtTTwo) {
  // sqrt(2) ceils to 2: msgs <= 9 * 2 * 2 = 36.
  const auto b = bounds_of("A", 8, 2, 1);
  EXPECT_EQ(b.at("bound_work_3n"), 24);
  EXPECT_EQ(b.at("bound_msgs"), 36);
  EXPECT_EQ(b.at("bound_rounds"), 8 * 2 + 3 * 4);
}

TEST(BoundsTest, ProtocolBDiffersFromAInMsgsAndRounds) {
  const auto a = bounds_of("A", 16, 4, 3);
  const auto b = bounds_of("B", 16, 4, 3);
  EXPECT_EQ(a.at("bound_work_3n"), b.at("bound_work_3n"));  // both 3n
  EXPECT_EQ(a.at("bound_msgs"), 9 * 4 * 2);
  EXPECT_EQ(b.at("bound_msgs"), 10 * 4 * 2);
  EXPECT_EQ(a.at("bound_rounds"), 16 * 4 + 3 * 16);  // nt + 3t^2
  EXPECT_EQ(b.at("bound_rounds"), 3 * 16 + 8 * 4);   // 3n + 8t
}

TEST(BoundsTest, ProtocolBRoundsReadNAsWholeSubchunks) {
  // t | n: Theorem 2.8(c)'s 3n + 8t exactly.
  EXPECT_EQ(bounds_of("B", 16, 4, 3).at("bound_rounds"), 3 * 16 + 8 * 4);
  EXPECT_EQ(bounds_of("B", 43 * 5, 43, 6).at("bound_rounds"), 3 * 215 + 8 * 43);
  // t does not divide n: each of the t subchunks is budgeted ceil(n/t)
  // rounds, so n reads as t * ceil(n/t) (ceil(181/43) = 5).
  EXPECT_EQ(bounds_of("B", 181, 43, 6).at("bound_rounds"), 3 * 43 * 5 + 8 * 43);
  // Protocol A's nt + 3t^2 is untouched.
  EXPECT_EQ(bounds_of("A", 181, 43, 6).at("bound_rounds"), 181 * 43 + 3 * 43 * 43);
}

TEST(BoundsTest, ProtocolBRaggedShapeFromTheFuzzCampaign) {
  // dowork_fuzz --cases 13000 --seed 5, case05748/B as shrunk: at n = 181,
  // t = 43 the last process retires in round 892, past 3n + 8t = 887 but
  // within 3t * ceil(n/t) + 8t = 989.
  Scenario s;
  s.id = "case05748/B";
  s.protocol = "B";
  s.cfg = DoAllConfig{181, 43};
  s.faults = FaultSpec::parse("random(p=0.02,crashes=6,seed=280580)");
  s.seed = 823468570;
  s.params["assert_bounds"] = 1;
  for (const auto& [key, value] : paper_bounds("B", 181, 43, fuzz::crash_budget_of(s.faults)))
    s.params[key] = value;
  const std::vector<ScenarioResult> rows = run_scenario("bounds", s);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].ok) << rows[0].violation;
  EXPECT_EQ(rows[0].rounds, "892");
  EXPECT_GT(rows[0].last_round, Round{3 * 181 + 8 * 43});
}

TEST(BoundsTest, ProtocolCAtNEqualsT) {
  // n = t = 4: T = 4, log T = 2; work n + 2t, msgs n + 8 T log T; and no
  // rounds bound -- C's deadlines are exponential by design.
  const auto b = bounds_of("C", 4, 4, 3);
  EXPECT_EQ(b.at("bound_work_n_2t"), 4 + 8);
  EXPECT_EQ(b.at("bound_msgs"), 4 + 8 * 4 * 2);
  EXPECT_EQ(b.count("bound_rounds"), 0u);
}

TEST(BoundsTest, ProtocolCPadsTToPowerOfTwo) {
  // t = 5 pads to T = 8, log T = 3.
  const auto b = bounds_of("C", 20, 5, 0);
  EXPECT_EQ(b.at("bound_msgs"), 20 + 8 * 8 * 3);
}

TEST(BoundsTest, ProtocolCAtTOneUsesLogFloorOne) {
  // T = 1 would give log T = 0 and an absurd msgs <= n; the formula floors
  // the log factor at 1.
  const auto b = bounds_of("C", 6, 1, 0);
  EXPECT_EQ(b.at("bound_msgs"), 6 + 8 * 1 * 1);
}

TEST(BoundsTest, CRoundBudgetMatchesTheScaleCap) {
  // Shapes are capped at n + t <= 440 everywhere C is exactly simulated
  // (512-bit deadlines); the constant is shared, not re-derived per family.
  EXPECT_EQ(kCRoundBudget, 440);
}

TEST(BoundsTest, CBatchInflatesWorkByBatchesAndKeepsMsgs) {
  // batch = ceil(23/3) = 8: work <= n + 2t * batch; msgs as plain C.
  const auto c = bounds_of("C", 23, 3, 2);
  const auto cb = bounds_of("C_batch", 23, 3, 2);
  EXPECT_EQ(cb.at("bound_work_batched"), 23 + 2 * 3 * 8);
  EXPECT_EQ(cb.at("bound_msgs"), c.at("bound_msgs"));
  EXPECT_EQ(cb.count("bound_rounds"), 0u);
}

TEST(BoundsTest, CBatchReducesToCWhenBatchIsOne) {
  // n <= t means batch = 1 and the Corollary 3.9 bound collapses to
  // Theorem 3.8's n + 2t exactly (only the key differs).
  const auto c = bounds_of("C", 4, 4, 1);
  const auto cb = bounds_of("C_batch", 4, 4, 1);
  EXPECT_EQ(cb.at("bound_work_batched"), c.at("bound_work_n_2t"));
}

TEST(BoundsTest, ProtocolDAtZeroCrashes) {
  // f = 0: work <= 2n, msgs <= 2t^2, rounds <= ceil(n/t) + 2.
  const auto b = bounds_of("D", 12, 4, 0);
  EXPECT_EQ(b.at("bound_work_2n"), 24);
  EXPECT_EQ(b.at("bound_msgs"), 2 * 16);
  EXPECT_EQ(b.at("bound_rounds"), 3 + 2);
}

TEST(BoundsTest, ProtocolDAtMinorityBudget) {
  // The largest case-1 budget, f = t/2 - 1 = 3 at t = 8.
  const auto b = bounds_of("D", 16, 8, 3);
  EXPECT_EQ(b.at("bound_work_2n"), 32);
  EXPECT_EQ(b.at("bound_msgs"), (4 * 3 + 2) * 64);
  EXPECT_EQ(b.at("bound_rounds"), 4 * 2 + 4 * 3 + 2);
}

TEST(BoundsTest, BoundsAreMonotoneInTheCrashBudget) {
  // Asserting with the budget when fewer crashes happen must stay sound,
  // so every bound is non-decreasing in crash_budget.
  for (const char* proto : {"A", "B", "C", "C_batch", "D"}) {
    const auto lo = bounds_of(proto, 20, 5, 1);
    const auto hi = bounds_of(proto, 20, 5, 2);
    for (const auto& [key, value] : lo) {
      EXPECT_LE(value, hi.at(key)) << proto << " " << key;
    }
  }
}

TEST(BoundsTest, KeysCarryTheDispatchPrefixes) {
  // assert_bounds routes on the bound_work* / bound_msgs* / bound_rounds*
  // prefixes; every emitted key must match one.
  for (const char* proto : {"A", "B", "C", "C_batch", "D"}) {
    for (const auto& [key, value] : paper_bounds(proto, 20, 5, 2)) {
      const bool routed = key.rfind("bound_work", 0) == 0 ||
                          key.rfind("bound_msgs", 0) == 0 ||
                          key.rfind("bound_rounds", 0) == 0;
      EXPECT_TRUE(routed) << proto << " emits unroutable key " << key;
      EXPECT_GT(value, 0) << proto << " " << key;
    }
  }
}

TEST(BoundsTest, UnknownProtocolThrows) {
  EXPECT_THROW(paper_bounds("naive_C", 8, 2, 1), std::invalid_argument);
  EXPECT_THROW(paper_bounds("", 8, 2, 1), std::invalid_argument);
}

TEST(BoundsTest, HasPaperBoundsMatchesTheAuditedSet) {
  for (const char* proto : {"A", "B", "C", "C_batch", "D"})
    EXPECT_TRUE(has_paper_bounds(proto)) << proto;
  EXPECT_FALSE(has_paper_bounds("naive_C"));
  EXPECT_FALSE(has_paper_bounds("A_async"));  // mapped to A by the fuzzer, not audited
  EXPECT_FALSE(has_paper_bounds(""));
}

TEST(BoundsTest, EveryRegisteredBoundParamCarriesTheOraclesValue) {
  // The experiment families state Theorems 2.3, 2.8, 3.8 and 4.1 only
  // through this oracle: on every sync, live or differential row of an
  // audited protocol, each param that paper_bounds also emits (at the row's
  // shape and the crash budget of its faults) carries paper_bounds' value.
  int checked = 0;
  for (const ExperimentInfo& e : all_experiments()) {
    for (const Scenario& s : e.scenarios()) {
      if (s.substrate != Substrate::kSync && s.substrate != Substrate::kLive &&
          s.substrate != Substrate::kDifferential)
        continue;
      if (!has_paper_bounds(s.protocol)) continue;
      const int budget = fuzz::crash_budget_of(s.faults);
      for (const auto& [key, value] : paper_bounds(s.protocol, s.cfg.n, s.cfg.t, budget)) {
        const auto it = s.params.find(key);
        if (it == s.params.end()) continue;
        ++checked;
        EXPECT_EQ(it->second, value) << e.name << " " << s.id << " " << key;
      }
    }
  }
  EXPECT_GE(checked, 935);  // every family that states one of these bounds
}

TEST(BoundsTest, ByzantineMessageBoundAtOneShapePerProtocol) {
  // s = 9 senders: q = 3, T = 16, log T = 4.
  EXPECT_EQ(byzantine_msgs_bound("A", 64, 8), 64 + 270 + 90 + 9);
  EXPECT_EQ(byzantine_msgs_bound("B", 64, 8), 64 + 270 + 90 + 9);
  EXPECT_EQ(byzantine_msgs_bound("C", 64, 8), 64 + 512 + 64 + 9);
  EXPECT_THROW(byzantine_msgs_bound("D", 64, 8), std::invalid_argument);
}

TEST(BoundsTest, EveryByzantineRowCarriesTheOraclesMessageBound) {
  int checked = 0;
  for (const ExperimentInfo& e : all_experiments()) {
    for (const Scenario& s : e.scenarios()) {
      if (s.substrate != Substrate::kByzantine) continue;
      const auto it = s.params.find("bound_msgs");
      if (it == s.params.end()) continue;
      ++checked;
      EXPECT_EQ(it->second, byzantine_msgs_bound(s.protocol, s.cfg.n, s.cfg.t))
          << e.name << " " << s.id;
    }
  }
  EXPECT_EQ(checked, 48);  // the byzantine family: 4 shapes x A/B/C x 4 adversaries
}

}  // namespace
}  // namespace dowork::harness
