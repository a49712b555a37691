#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "sim/fault_injector.h"

namespace dowork {
namespace {

struct IntPayload final : Payload {
  int v;
  explicit IntPayload(int v_in) : v(v_in) {}
};

// Sends one message to `to` at its start round, then terminates.
class OneShotSender final : public IProcess {
 public:
  OneShotSender(int to, std::uint64_t at_round, int tag = 7)
      : to_(to), at_(at_round), tag_(tag) {}
  Action on_round(const RoundContext& ctx, const InboxView&) override {
    Action a;
    if (ctx.round >= Round{at_}) {
      a.sends.push_back(Outgoing{to_, MsgKind::kOther, std::make_shared<IntPayload>(tag_)});
      a.terminate = true;
    }
    return a;
  }
  Round next_wake(const Round& now) const override {
    return Round{at_} > now ? Round{at_} : now;
  }

 private:
  int to_;
  std::uint64_t at_;
  int tag_;
};

// Records the round of its first received message, then terminates.
class Receiver final : public IProcess {
 public:
  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    Action a;
    if (!inbox.empty()) {
      const Msg first = inbox.front();
      received_round = ctx.round;
      received_from = first.from;
      received_tag = first.as<IntPayload>() ? first.as<IntPayload>()->v : -1;
      a.terminate = true;
    }
    return a;
  }
  Round next_wake(const Round&) const override { return never_round(); }

  Round received_round;
  int received_from = -1;
  int received_tag = -1;
};

// Performs `n` units of work, one per round, then terminates.
class Worker final : public IProcess {
 public:
  explicit Worker(std::int64_t n) : n_(n) {}
  Action on_round(const RoundContext&, const InboxView&) override {
    Action a;
    if (next_ <= n_) a.work = next_++;
    if (next_ > n_) a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  std::int64_t n_;
  std::int64_t next_ = 1;
};

// Broadcasts to everyone each round, forever (used for crash tests).
class Chatterbox final : public IProcess {
 public:
  explicit Chatterbox(int t) : t_(t) {}
  Action on_round(const RoundContext& ctx, const InboxView&) override {
    Action a;
    a.sends.push_back(Outgoing{IdRange{0, t_}, MsgKind::kOther,
                               std::make_shared<IntPayload>(
                                   static_cast<int>(ctx.round.to_u64_saturating()))});
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  int t_;
};

TEST(Simulator, MessageDeliveredNextRound) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<OneShotSender>(1, 3));
  auto receiver = std::make_unique<Receiver>();
  Receiver* rx = receiver.get();
  procs.push_back(std::move(receiver));

  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  RunMetrics m = sim.run();  // keep sim (and the processes) alive for rx
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(m.messages_total, 1u);
  EXPECT_EQ(rx->received_round, Round{4});  // sent at 3, delivered at 4
  EXPECT_EQ(rx->received_from, 0);
  EXPECT_EQ(rx->received_tag, 7);
}

TEST(Simulator, FastForwardSkipsIdleRounds) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<OneShotSender>(1, 1'000'000));
  auto receiver = std::make_unique<Receiver>();
  Receiver* rx = receiver.get();
  procs.push_back(std::move(receiver));

  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  RunMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(rx->received_round, Round{1'000'001});
  EXPECT_LE(m.stepped_rounds, 4u);  // not a million rounds
  EXPECT_GE(m.fast_forward_jumps, 1u);
}

TEST(Simulator, FastForwardWorksBeyondU64) {
  std::vector<std::unique_ptr<IProcess>> procs;
  // A receiver-only system would deadlock; use a sender waking at a
  // beyond-u64 round to prove big-jump scheduling works.
  class LateActor final : public IProcess {
   public:
    Action on_round(const RoundContext& ctx, const InboxView&) override {
      acted_at = ctx.round;
      Action a;
      a.terminate = true;
      return a;
    }
    Round next_wake(const Round& now) const override {
      Round at = BigUint::pow2(100);
      return at > now ? at : now;
    }
    Round acted_at;
  };
  auto actor = std::make_unique<LateActor>();
  LateActor* ptr = actor.get();
  procs.push_back(std::move(actor));
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  RunMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(ptr->acted_at, BigUint::pow2(100));
  EXPECT_LE(m.stepped_rounds, 2u);  // round 0 plus the wake round
}

TEST(Simulator, WorkAccountingAndSink) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Worker>(5));
  Simulator::Options opts;
  opts.n_units = 5;
  std::vector<std::int64_t> sunk;
  RunMetrics m = run_simulation(std::move(procs), std::make_unique<NoFaults>(), opts,
                                [&](int, std::int64_t u, const Round&) { sunk.push_back(u); });
  EXPECT_EQ(m.work_total, 5u);
  EXPECT_TRUE(m.all_units_done());
  EXPECT_EQ(sunk, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(m.max_concurrent_workers, 1u);
}

TEST(Simulator, DeadlockDetected) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Receiver>());  // waits forever
  RunMetrics m = run_simulation(std::move(procs), std::make_unique<NoFaults>(), {});
  EXPECT_TRUE(m.deadlocked);
  EXPECT_FALSE(m.all_retired);
}

TEST(Simulator, CrashTruncatesBroadcastToPrefix) {
  // Process 0 broadcasts to 0..3 every round; crash it on its first action
  // delivering only a prefix of the flattened recipient sequence.
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Chatterbox>(4));
  std::vector<Receiver*> rx;
  for (int i = 0; i < 3; ++i) {
    auto r = std::make_unique<Receiver>();
    rx.push_back(r.get());
    procs.push_back(std::move(r));
  }
  ScheduledFaults::Entry e;
  e.proc = 0;
  e.on_nth_action = 1;
  // Chatterbox's audience is {0,1,2,3} in ascending order; prefix 2 covers
  // recipients {0, 1}.
  e.plan.deliver_prefix = 2;
  Simulator sim(std::move(procs), std::make_unique<ScheduledFaults>(std::vector{e}), {});
  RunMetrics m = sim.run();
  EXPECT_EQ(m.crashes, 1u);
  EXPECT_EQ(m.messages_total, 2u);     // only the prefix counts as sent
  EXPECT_EQ(rx[0]->received_from, 0);  // process 1 got it
  EXPECT_EQ(rx[1]->received_from, -1);
  EXPECT_EQ(rx[2]->received_from, -1);
  // Processes 2,3 then deadlock (they wait forever): run reports it.
  EXPECT_TRUE(m.deadlocked);
}

TEST(Simulator, CrashCanSuppressWorkUnit) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Worker>(10));
  procs.push_back(std::make_unique<Worker>(10));  // survivor so crash is allowed
  ScheduledFaults::Entry e;
  e.proc = 0;
  e.on_nth_action = 3;
  e.plan.work_completes = false;
  Simulator::Options opts;
  opts.n_units = 10;
  RunMetrics m = run_simulation(std::move(procs),
                                std::make_unique<ScheduledFaults>(std::vector{e}), opts);
  EXPECT_EQ(m.crashes, 1u);
  EXPECT_EQ(m.work_by_proc[0], 2u);   // third unit suppressed
  EXPECT_EQ(m.work_by_proc[1], 10u);  // untouched
}

TEST(Simulator, LastSurvivorNeverCrashes) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Worker>(4));
  ScheduledFaults::Entry e;
  e.proc = 0;
  e.on_nth_action = 1;
  Simulator::Options opts;
  opts.n_units = 4;
  RunMetrics m = run_simulation(std::move(procs),
                                std::make_unique<ScheduledFaults>(std::vector{e}), opts);
  EXPECT_EQ(m.crashes, 0u);
  EXPECT_TRUE(m.all_units_done());
}

TEST(Simulator, StrictModeRejectsWorkPlusSend) {
  class Bad final : public IProcess {
    Action on_round(const RoundContext&, const InboxView&) override {
      Action a;
      a.work = 1;
      a.sends.push_back(Outgoing{0, MsgKind::kOther, std::make_shared<IntPayload>(0)});
      a.terminate = true;
      return a;
    }
    Round next_wake(const Round& now) const override { return now; }
  };
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Bad>());
  Simulator::Options opts;
  opts.strict_one_op = true;
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), opts);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, StrictModeAllowsPollReplyAlongsideWork) {
  class PolledWorker final : public IProcess {
    Action on_round(const RoundContext&, const InboxView& inbox) override {
      Action a;
      a.work = 1;
      for (const Msg& msg : inbox)
        if (msg.kind == MsgKind::kPoll)
          a.sends.push_back(Outgoing{msg.from, MsgKind::kPollReply, nullptr});
      a.terminate = true;
      return a;
    }
    Round next_wake(const Round& now) const override { return now; }
  };
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<PolledWorker>());
  Simulator::Options opts;
  opts.strict_one_op = true;
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), opts);
  EXPECT_NO_THROW(sim.run());
}

TEST(Simulator, RunTwiceThrows) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Worker>(1));
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(FaultInjector, WorkCascadeCrashesSequentially) {
  // Three workers working in parallel; cascade kills each after 2 units,
  // at most 2 crashes.
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < 3; ++i) procs.push_back(std::make_unique<Worker>(6));
  Simulator::Options opts;
  opts.n_units = 6;
  RunMetrics m = run_simulation(
      std::move(procs), std::make_unique<WorkCascadeFaults>(2, /*max_crashes=*/2), opts);
  EXPECT_EQ(m.crashes, 2u);
  // The survivor did all 6 units.
  std::uint64_t max_work = 0;
  for (auto w : m.work_by_proc) max_work = std::max(max_work, w);
  EXPECT_EQ(max_work, 6u);
}

TEST(FaultInjector, RandomFaultsRespectMaxCrashes) {
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < 8; ++i) procs.push_back(std::make_unique<Worker>(20));
  RunMetrics m = run_simulation(std::move(procs),
                                std::make_unique<RandomFaults>(0.9, 5, /*seed=*/42), {});
  EXPECT_LE(m.crashes, 5u);
  EXPECT_TRUE(m.all_retired);
}

// --- payload sharing (the ownership rules in message.h) ---------------------

// Payload that counts its constructions, so a test can assert a broadcast
// allocates exactly once regardless of recipient count.
struct CountedPayload final : Payload {
  static int constructions;
  int v;
  explicit CountedPayload(int v_in) : v(v_in) { ++constructions; }
  CountedPayload(const CountedPayload& o) : Payload(o), v(o.v) { ++constructions; }
};
int CountedPayload::constructions = 0;

// Broadcasts one CountedPayload to every other process in round 0, via the
// explicit-recipient-list broadcast() helper.
class CountingBroadcaster final : public IProcess {
 public:
  explicit CountingBroadcaster(int t) : t_(t) {}
  Action on_round(const RoundContext&, const InboxView&) override {
    Action a;
    std::vector<int> recipients;
    for (int i = 1; i < t_; ++i) recipients.push_back(i);
    a.sends.push_back(broadcast(recipients, MsgKind::kOther, std::make_shared<CountedPayload>(42)));
    a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  int t_;
};

// Keeps the payload it received alive past on_round by copying the Msg's
// owning reference -- the retention idiom the inbox reuse contract in
// process.h prescribes (raw pointers or Msg views would dangle).  Also
// records how many owners the payload had at receipt time: under the
// broadcast ledger that is exactly one (the ledger record), however many
// recipients the broadcast had.
class PayloadObserver final : public IProcess {
 public:
  PayloadObserver(std::shared_ptr<const Payload>* slot, long* use_count)
      : slot_(slot), use_count_(use_count) {}
  Action on_round(const RoundContext&, const InboxView& inbox) override {
    Action a;
    if (!inbox.empty()) {
      const Msg first = inbox.front();
      *use_count_ = first.payload().use_count();
      *slot_ = first.payload();
      a.terminate = true;
    }
    return a;
  }
  Round next_wake(const Round&) const override { return never_round(); }

 private:
  std::shared_ptr<const Payload>* slot_;
  long* use_count_;
};

TEST(PayloadSharing, BroadcastAllocatesOncePerBroadcastNotPerRecipient) {
  constexpr int t = 17;
  CountedPayload::constructions = 0;
  std::vector<std::shared_ptr<const Payload>> seen(t);
  std::vector<long> owners(t, 0);
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<CountingBroadcaster>(t));
  for (int i = 1; i < t; ++i)
    procs.push_back(std::make_unique<PayloadObserver>(&seen[i], &owners[i]));
  RunMetrics m = run_simulation(std::move(procs), std::make_unique<NoFaults>(), {});
  ASSERT_TRUE(m.all_retired);
  EXPECT_EQ(m.messages_total, static_cast<std::uint64_t>(t - 1));

  // One allocation for the whole t-1 recipient broadcast...
  EXPECT_EQ(CountedPayload::constructions, 1);
  // ...and every recipient reads the SAME object (refcount sharing, no
  // clones), still alive because each kept a reference.
  const auto* first = dynamic_cast<const CountedPayload*>(seen[1].get());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->v, 42);
  for (int i = 2; i < t; ++i) EXPECT_EQ(seen[i].get(), seen[1].get()) << "recipient " << i;
  // Delivery holds ONE owning reference -- the ledger record -- no matter
  // the fan-out; the envelope-per-pair plane held t-1 here.  Only the
  // first recipient's count is asserted: later recipients also see the
  // copies earlier observers retained, and GCC is free to elide those
  // matched refcount updates at -O2+ (it does), so their exact counts are
  // optimization-dependent.  The first recipient observes pure delivery
  // state either way.
  EXPECT_EQ(owners[1], 1);
}

TEST(PayloadSharing, ReceivedPayloadsAreImmutable) {
  // Msg::payload() is shared_ptr<const Payload> and as<T>() yields a const
  // pointer: a recipient cannot mutate what its peers will read.
  // (Compile-time property; pinned here so a refactor that drops the const
  // turns this test red at build time.)
  static_assert(std::is_same_v<decltype(std::declval<const Msg&>().as<CountedPayload>()),
                               const CountedPayload*>);
  static_assert(std::is_same_v<std::remove_cvref_t<decltype(std::declval<const Msg&>().payload())>,
                               std::shared_ptr<const Payload>>);
  static_assert(std::is_same_v<decltype(DeliveryRecord::payload), std::shared_ptr<const Payload>>);
  SUCCEED();
}

}  // namespace
}  // namespace dowork
