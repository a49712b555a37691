// Grammar fuzz for the composed FaultSpec v2: 10k randomly generated valid
// specs must round-trip parse(to_string()) == identity (and to_string o
// parse must be a fixed point), and a corpus of near-miss malformed strings
// -- each one edit away from valid -- must be rejected with
// std::invalid_argument rather than mis-parsed.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "adversary/strategies.h"
#include "harness/fault_spec.h"

namespace dowork::harness {
namespace {

// Deterministic generator: one random valid FaultSpec per call.
class SpecGen {
 public:
  explicit SpecGen(std::uint64_t seed) : rng_(seed) {}

  FaultSpec next() {
    FaultSpec spec = random_crash();
    // Half the specs carry a network component (possibly on a bare "none"
    // crash, exercising the net-only rendering).
    if (flip()) spec.net = random_net();
    return spec;
  }

 private:
  bool flip() { return rng_() % 2 == 0; }
  std::uint64_t u64(std::uint64_t lo, std::uint64_t hi) {
    return lo + rng_() % (hi - lo + 1);
  }
  int small() { return static_cast<int>(u64(0, 99)); }
  std::size_t prefix() {
    return flip() ? SIZE_MAX : static_cast<std::size_t>(u64(0, 1000));
  }
  double probability() {
    // Includes values needing full 17-digit round-trips.
    switch (u64(0, 3)) {
      case 0: return 0.05;
      case 1: return 1.0 / 3.0;
      case 2: return static_cast<double>(u64(1, 999)) / 1000.0;
      default: return 1.0 / static_cast<double>(u64(3, 97));
    }
  }

  FaultSpec random_crash() {
    switch (u64(0, 5)) {
      case 0:
        return FaultSpec::none();
      case 1:
        return FaultSpec::cascade(u64(1, 1 << 20), small(), prefix(), flip());
      case 2:
        return FaultSpec::on_unit(static_cast<std::int64_t>(u64(0, 1 << 20)), small(),
                                  prefix());
      case 3:
        return FaultSpec::random(probability(), small(), u64(0, 1 << 30));
      case 4: {
        std::vector<ScheduledFaults::Entry> entries;
        const std::uint64_t count = u64(0, 5);
        for (std::uint64_t i = 0; i < count; ++i)
          entries.push_back({static_cast<int>(u64(0, 63)), u64(1, 1000),
                             CrashPlan{flip(), prefix()}});
        return FaultSpec::scheduled(std::move(entries));
      }
      default: {
        const auto& all = adversary::all_strategies();
        const std::string& name = all[u64(0, all.size() - 1)].name;
        return FaultSpec::adaptive(name, small(), u64(0, 1 << 30),
                                   /*jam=*/flip() ? small() : 0);
      }
    }
  }

  NetSpec random_net() {
    NetSpec net;
    net.seed = u64(0, 1 << 30);
    // At least one active component, any combination.
    do {
      if (flip()) {
        net.lat_min = u64(0, 50);
        net.lat_max = net.lat_min + u64(1, 50);
      }
      if (flip()) net.drop = probability();
      if (flip()) {
        net.partitions.clear();
        const std::uint64_t count = u64(1, 3);
        std::uint64_t from = u64(0, 100);
        for (std::uint64_t i = 0; i < count; ++i) {
          const std::uint64_t until = from + u64(1, 100);
          net.partitions.push_back(
              {from, until, static_cast<int>(u64(1, 64))});
          from = until + u64(1, 100);
        }
      }
    } while (net.is_noop());
    return net;
  }

  std::mt19937_64 rng_;
};

TEST(FaultSpecFuzz, TenThousandRandomSpecsRoundTrip) {
  SpecGen gen(0xD0A11);
  for (int i = 0; i < 10'000; ++i) {
    const FaultSpec spec = gen.next();
    const std::string text = spec.to_string();
    FaultSpec back;
    ASSERT_NO_THROW(back = FaultSpec::parse(text)) << text;
    ASSERT_EQ(back, spec) << text;
    ASSERT_EQ(back.to_string(), text) << text;
  }
}

TEST(FaultSpecFuzz, BareV1StringsStillParse) {
  // The composed grammar is a superset: every v1 rendering parses, with and
  // without the optional "crash=" tag, to the same spec.
  const std::vector<std::string> v1 = {
      "none",
      "cascade(units=129,crashes=63,prefix=1,completes=1)",
      "on_unit(unit=63,crashes=31,prefix=all)",
      "random(p=0.05,crashes=15,seed=42)",
      "scheduled()",
      "scheduled(0@1:0:4;3@9:1:all)",
      "adaptive:greedy(crashes=15,seed=7)",
  };
  for (const std::string& text : v1) {
    EXPECT_EQ(FaultSpec::parse(text), FaultSpec::parse("crash=" + text)) << text;
    EXPECT_EQ(FaultSpec::parse(text).to_string(), text);
  }
}

TEST(FaultSpecFuzz, NearMissCorpusIsRejected) {
  // Each entry is one edit from a valid spec; parse must throw, never
  // guess.
  const std::vector<std::string> corpus = {
      "",
      ";",
      "none;",                                       // trailing separator
      ";none",                                       // leading separator
      "none;none",                                   // duplicate crash part
      "crash=none;crash=none",                       // duplicate tagged crash
      "net=(lat=1..4,seed=0);net=(drop=0.1,seed=0)",  // duplicate net part
      "crash=",                                      // tag without value
      "net=",                                        // tag without value
      "net=(seed=3)",                                // effect-free net
      "net=(lat=1..4)",                              // missing seed
      "net=(lat=4..1,seed=0)",                       // inverted range
      "net=lat=1..4,seed=0",                         // net body without parens
      "crash=cascade(units=1,crashes=1,prefix=0,completes=1",  // unbalanced
      "cascade(units=1,crashes=1,prefix=0)",          // missing field
      "cascade(units=1,crashes=1,prefix=0,completes=1);extra=1",  // unknown part
      "adaptive:zeus(crashes=1,seed=0)",              // unregistered strategy
      "adaptive:jammer(crashes=0,jam=0,seed=0)",      // explicit zero jam
      "adaptive:jammer(crashes=0,jam=-2,seed=0)",     // negative jam
      "none;net=(lat=1..4,seed=0);none",              // three components
      "martian(x=1)",
      "crash=martian(x=1);net=(lat=1..4,seed=0)",
      "cascade(units=3x,crashes=1,prefix=0,completes=1)",   // trailing junk
      "scheduled(99999999999999999999@1:0:0)",              // proc past u64
      "cascade(units=1,crashes=2147483648,prefix=0,completes=1)",  // past INT_MAX
      "cascade(units=1,crashes=1,prefix=0,completes=2)",    // BOOL other than 0/1
      "random(p=0.5x,crashes=1,seed=0)",                    // trailing junk on a DOUBLE
  };
  for (const std::string& text : corpus) {
    EXPECT_THROW(FaultSpec::parse(text), std::invalid_argument) << "'" << text << "'";
  }
}

TEST(FaultSpecFuzz, ComposedExactStrings) {
  // One pinned rendering per composed shape (the harness_test v1 table pins
  // the bare crash forms).
  EXPECT_EQ(FaultSpec::none().with_net(NetSpec::latency(1, 20, 7)).to_string(),
            "net=(lat=1..20,seed=7)");
  EXPECT_EQ(FaultSpec::cascade(2, 7, 1).with_net(NetSpec::lossy(0.05, 11)).to_string(),
            "crash=cascade(units=2,crashes=7,prefix=1,completes=1);net=(drop=0.05,seed=11)");
  EXPECT_EQ(FaultSpec::scheduled({{0, 1, CrashPlan{false, 4}}})
                .with_net(NetSpec::partition({{8, 40, 4}}, 2))
                .to_string(),
            "crash=scheduled(0@1:0:4);net=(part=8..40@4,seed=2)");
  EXPECT_EQ(FaultSpec::adaptive("jammer", 0, 1, /*jam=*/16).to_string(),
            "adaptive:jammer(crashes=0,jam=16,seed=1)");
  NetSpec all = NetSpec::latency(1, 4, 3);
  all.drop = 0.1;
  all.partitions = {{10, 20, 3}, {30, 44, 5}};
  EXPECT_EQ(FaultSpec::none().with_net(all).to_string(),
            "net=(lat=1..4,drop=0.1,part=10..20@3;30..44@5,seed=3)");
}

}  // namespace
}  // namespace dowork::harness
