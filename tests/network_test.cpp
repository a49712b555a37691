// Tests for the network-fault plane (sim/network_model.h): the NetSpec
// grammar, the NetworkModel oracle, both substrates' delivery behavior under
// latency / loss / partitions, the no-op identity that keeps crash-only runs
// byte-for-bit unchanged, and the observable's network visibility.
#include "sim/network_model.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "async/protocol_a_async.h"
#include "core/runner.h"
#include "harness/fault_spec.h"
#include "sim/simulator.h"

namespace dowork {
namespace {

using harness::FaultSpec;

// --- NetSpec value semantics ------------------------------------------------

TEST(NetSpec, DefaultIsNoop) {
  NetSpec spec;
  EXPECT_TRUE(spec.is_noop());
  NetworkModel model(spec);
  EXPECT_TRUE(model.is_noop());
  EXPECT_FALSE(model.has_latency());
  EXPECT_FALSE(model.has_drop());
  EXPECT_FALSE(model.has_partitions());
}

TEST(NetSpec, RoundTripsEveryComponentCombination) {
  const std::vector<NetSpec> specs = {
      NetSpec::latency(1, 20, 7),
      NetSpec::lossy(0.05, 3),
      NetSpec::lossy(1.0 / 3.0, 0),  // needs full double precision
      NetSpec::partition({{8, 40, 4}}, 0),
      NetSpec::partition({{4, 24, 8}, {48, 64, 2}}, 9),
      [] {
        NetSpec s = NetSpec::latency(2, 5, 11);
        s.drop = 0.1;
        s.partitions = {{10, 20, 3}};
        return s;
      }(),
  };
  for (const NetSpec& spec : specs) {
    const std::string text = spec.to_string();
    EXPECT_EQ(NetSpec::parse(text), spec) << text;
    EXPECT_EQ(NetSpec::parse(text).to_string(), text);
  }
}

TEST(NetSpec, ExactStrings) {
  EXPECT_EQ(NetSpec::latency(1, 20, 7).to_string(), "(lat=1..20,seed=7)");
  EXPECT_EQ(NetSpec::lossy(0.05, 3).to_string(), "(drop=0.05,seed=3)");
  EXPECT_EQ(NetSpec::partition({{8, 40, 4}}, 0).to_string(), "(part=8..40@4,seed=0)");
  EXPECT_EQ(NetSpec::partition({{4, 24, 8}, {48, 64, 2}}, 9).to_string(),
            "(part=4..24@8;48..64@2,seed=9)");
}

TEST(NetSpec, RejectsMalformedText) {
  for (const char* bad : {
           "",                        // empty
           "lat=1..20,seed=7",       // missing parens
           "(seed=7)",               // effect-free
           "()",                     // empty body
           "(lat=0..0,seed=1)",      // latency component present but disabled
           "(lat=20..1,seed=1)",     // inverted range
           "(lat=1..20)",            // missing seed
           "(drop=0,seed=1)",        // drop present but zero
           "(drop=1.5,seed=1)",      // probability out of range
           "(drop=-0.1,seed=1)",     // negative probability
           "(part=,seed=1)",         // empty windows
           "(part=8..40,seed=1)",    // window missing split
           "(lat=1..2,lat=3..4,seed=1)",  // duplicate field
           "(weather=bad,seed=1)",   // unknown field
       }) {
    EXPECT_THROW(NetSpec::parse(bad), std::invalid_argument) << bad;
  }
}

// --- the oracle's deterministic components ----------------------------------

TEST(NetworkModel, SeveredRespectsWindowsAndSides) {
  NetworkModel m(NetSpec::partition({{10, 20, 4}}, 0));
  // Before, at heal time, and after: nothing severed.
  EXPECT_FALSE(m.severed(0, 7, 9));
  EXPECT_FALSE(m.severed(0, 7, 20));
  // In force: only cross-cut links sever, both directions.
  EXPECT_TRUE(m.severed(0, 7, 10));
  EXPECT_TRUE(m.severed(7, 0, 15));
  EXPECT_FALSE(m.severed(0, 3, 15));  // same side (below split)
  EXPECT_FALSE(m.severed(5, 7, 15));  // same side (rest)
}

// --- synchronous substrate --------------------------------------------------

RunResult run_sync(const char* proto, std::int64_t n, int t, NetSpec net) {
  RunOptions opts;
  opts.net = std::move(net);
  return run_do_all(proto, DoAllConfig{n, t}, harness::FaultSpec::none().make(), opts);
}

TEST(SyncNetwork, NoopSpecIsByteIdenticalToCrashOnly) {
  RunResult plain = run_do_all("A", DoAllConfig{64, 8}, FaultSpec::none().make());
  RunResult netted = run_sync("A", 64, 8, NetSpec{});
  EXPECT_EQ(plain.metrics.work_total, netted.metrics.work_total);
  EXPECT_EQ(plain.metrics.messages_total, netted.metrics.messages_total);
  EXPECT_EQ(plain.metrics.last_retire_round, netted.metrics.last_retire_round);
  EXPECT_EQ(plain.metrics.available_processor_steps, netted.metrics.available_processor_steps);
}

TEST(SyncNetwork, LatencyDelaysDeliveryButCompletes) {
  RunResult r = run_sync("A", 64, 8, NetSpec::latency(1, 4, 3));
  EXPECT_TRUE(r.ok()) << r.violation;
  EXPECT_GT(r.metrics.net_delayed, 0u);
  EXPECT_EQ(r.metrics.net_dropped, 0u);
  // Late checkpoints trigger deadline takeovers: never less total work than
  // the undisturbed run, and never less time.
  RunResult plain = run_sync("A", 64, 8, NetSpec{});
  EXPECT_GE(r.metrics.work_total, plain.metrics.work_total);
  EXPECT_LT(plain.metrics.last_retire_round, r.metrics.last_retire_round);
}

TEST(SyncNetwork, LossDropsRecipientsButCompletes) {
  RunResult r = run_sync("B", 256, 16, NetSpec::lossy(0.2, 7));
  EXPECT_TRUE(r.ok()) << r.violation;
  EXPECT_GT(r.metrics.net_dropped, 0u);
}

TEST(SyncNetwork, PartitionSeversCrossCutLinksThenHeals) {
  RunResult r = run_sync("A", 64, 8, NetSpec::partition({{2, 30, 4}}, 0));
  EXPECT_TRUE(r.ok()) << r.violation;
  EXPECT_GT(r.metrics.net_blocked, 0u);
  EXPECT_EQ(r.metrics.net_dropped, 0u);  // partitions consume no draws
}

TEST(SyncNetwork, LossIsSeedDeterministic) {
  RunResult a = run_sync("A", 64, 8, NetSpec::lossy(0.1, 5));
  RunResult b = run_sync("A", 64, 8, NetSpec::lossy(0.1, 5));
  EXPECT_EQ(a.metrics.work_total, b.metrics.work_total);
  EXPECT_EQ(a.metrics.net_dropped, b.metrics.net_dropped);
  EXPECT_EQ(a.metrics.last_retire_round, b.metrics.last_retire_round);
  RunResult c = run_sync("A", 64, 8, NetSpec::lossy(0.1, 6));
  EXPECT_NE(a.metrics.net_dropped, c.metrics.net_dropped);
}

// --- asynchronous substrate -------------------------------------------------

TEST(AsyncNetwork, UnsetLatencyReproducesTheOptionKnobsExactly) {
  // The NetSpec latency component replaces [min_delay, max_delay]; leaving
  // it unset must reproduce the historical event stream byte for byte.
  DoAllConfig cfg{64, 8};
  AsyncSim::Options plain;
  plain.seed = 5;
  plain.min_delay = 2;
  plain.max_delay = 9;
  AsyncMetrics a = run_async_protocol_a(cfg, plain);

  AsyncSim::Options netted = plain;
  netted.net = NetSpec::latency(2, 9, 0);  // same range through the model
  AsyncMetrics b = run_async_protocol_a(cfg, netted);
  EXPECT_EQ(a.work_total, b.work_total);
  EXPECT_EQ(a.messages_total, b.messages_total);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.fd_notices, b.fd_notices);
}

TEST(AsyncNetwork, LossCostsWorkButTheDetectorCarriesTheRun) {
  DoAllConfig cfg{64, 8};
  AsyncSim::Options opts;
  opts.seed = 5;
  opts.net = NetSpec::lossy(0.2, 0);
  AsyncMetrics m = run_async_protocol_a(cfg, opts);
  EXPECT_TRUE(m.all_retired);
  EXPECT_TRUE(m.all_units_done());
  EXPECT_GT(m.net_dropped, 0u);
}

TEST(AsyncNetwork, PartitionWindowsSeverByEventTime) {
  DoAllConfig cfg{64, 8};
  AsyncSim::Options opts;
  opts.seed = 5;
  opts.net = NetSpec::partition({{0, 200, 4}}, 0);
  AsyncMetrics m = run_async_protocol_a(cfg, opts);
  EXPECT_TRUE(m.all_retired);
  EXPECT_TRUE(m.all_units_done());
  EXPECT_GT(m.net_blocked, 0u);
}

// --- per-record sent rounds ------------------------------------------------

// Sends one unicast to process 2 in round `send_at`, then terminates.
class OneShotSender final : public IProcess {
 public:
  explicit OneShotSender(std::uint64_t send_at) : send_at_(send_at) {}
  Action on_round(const RoundContext&, const InboxView&) override {
    Action a;
    a.sends.push_back(Outgoing{2, MsgKind::kOther, std::make_shared<Payload>()});
    a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override {
    return now < Round{send_at_} ? Round{send_at_} : now;
  }

 private:
  std::uint64_t send_at_;
};

// Purely reactive; logs (sender, sent round) of every message it reads into
// caller-owned storage and terminates once it has read `expect` of them.
class SentRoundLog final : public IProcess {
 public:
  SentRoundLog(std::vector<std::pair<int, Round>>* log, std::size_t expect)
      : log_(log), expect_(expect) {}
  Action on_round(const RoundContext&, const InboxView& inbox) override {
    for (const Msg& m : inbox) log_->emplace_back(m.from, m.sent_round());
    Action a;
    a.terminate = log_->size() >= expect_;
    return a;
  }
  Round next_wake(const Round&) const override { return never_round(); }

 private:
  std::vector<std::pair<int, Round>>* log_;
  std::size_t expect_;
};

// Holds every record from process 0 back `delay` extra rounds.
class DelayFromZero final : public FaultInjector {
 public:
  explicit DelayFromZero(std::uint64_t delay) : delay_(delay) {}
  std::optional<CrashPlan> inspect(int, const Round&, const Action&,
                                   const SimSnapshot&) override {
    return std::nullopt;
  }
  std::optional<MessageFault> on_message(int from, const Round&, const DeliveryRecord&) override {
    if (from != 0) return std::nullopt;
    return MessageFault{false, delay_};
  }
  bool wants_message_faults() const override { return true; }

 private:
  std::uint64_t delay_;
};

TEST(SyncNetwork, DelayedAndOnTimeMessagesKeepTheirOwnSentRounds) {
  // Process 0 sends in round 0, held two extra rounds; process 1 sends in
  // round 2 on time.  Both land in process 2's round-3 inbox, and each
  // message reports the round its sender emitted it in.
  std::vector<std::pair<int, Round>> log;
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<OneShotSender>(0));
  procs.push_back(std::make_unique<OneShotSender>(2));
  procs.push_back(std::make_unique<SentRoundLog>(&log, 2));
  Simulator sim(std::move(procs), std::make_unique<DelayFromZero>(2), Simulator::Options{});
  const RunMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(m.net_delayed, 1u);
  // One inbox: the on-time ledger record first, then the delayed one.
  const std::vector<std::pair<int, Round>> want = {{1, Round{2}}, {0, Round{0}}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(m.last_retire_round, Round{3});
}

// --- adversarial message faults (decision point 4) --------------------------

TEST(Jammer, SpendsItsBudgetDroppingAnnouncements) {
  // Protocol B rebuilds jammed knowledge as redone work; Protocol A absorbs
  // the same drops as waiting time instead, so the work assertion lives on B.
  RunResult jammed = run_do_all("B", DoAllConfig{256, 16},
                                FaultSpec::adaptive("jammer", 0, 1, /*jam=*/16).make());
  EXPECT_TRUE(jammed.ok()) << jammed.violation;
  RunResult plain = run_do_all("B", DoAllConfig{256, 16}, FaultSpec::none().make());
  EXPECT_GT(jammed.metrics.work_total, plain.metrics.work_total);
  EXPECT_GT(jammed.metrics.net_dropped, 0u);
  EXPECT_EQ(jammed.metrics.crashes, 0u);

  // A completes without redone work but still records the drops.
  RunResult a = run_do_all("A", DoAllConfig{256, 16},
                           FaultSpec::adaptive("jammer", 0, 1, /*jam=*/16).make());
  EXPECT_TRUE(a.ok()) << a.violation;
  EXPECT_GT(a.metrics.net_dropped, 0u);
  EXPECT_EQ(a.metrics.crashes, 0u);
}

TEST(Jammer, ZeroJamBudgetIsCrashOnlyNoop) {
  RunResult jammed = run_do_all("A", DoAllConfig{64, 8},
                                FaultSpec::adaptive("jammer", 0, 1, /*jam=*/0).make());
  RunResult plain = run_do_all("A", DoAllConfig{64, 8}, FaultSpec::none().make());
  EXPECT_EQ(jammed.metrics.work_total, plain.metrics.work_total);
  EXPECT_EQ(jammed.metrics.messages_total, plain.metrics.messages_total);
  EXPECT_EQ(jammed.metrics.net_dropped, 0u);
}

}  // namespace
}  // namespace dowork
