#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

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

// --- wake queue vs a brute-force scheduler ----------------------------------

using StepLog = std::vector<std::pair<Round, int>>;

// A seeded deadline script.  Each step draws the process's next deadline D
// (next_wake answers max(D, now), the contract in process.h) and may name a
// random peer to mail.  The simulator and the brute-force loop below drive
// identical copies, so both see the same decisions if they step the same
// processes in the same rounds.
struct DeadlineScript {
  struct Move {
    int mail_to = -1;
    bool terminate = false;
  };

  // Without `mail_only` no deadline is ever never, so the run cannot
  // deadlock and ends with every process retired.
  DeadlineScript(std::uint64_t seed, int self, int t, bool mail_only)
      : rng(seed),
        self(self),
        t(t),
        mail_only(mail_only),
        steps_left(static_cast<int>(rng.uniform(20, 120))) {
    draw(Round{0});
  }

  // `next` is the round the simulator re-queries next_wake at.
  void draw(const Round& next) {
    const std::uint64_t kind = rng.uniform(0, 19);
    if (kind < 5) {
      deadline = next;  // run again
    } else if (kind < 10) {
      deadline = next + Round{rng.uniform(1, 40)};  // later
    } else if (kind < 16) {
      // Earlier than the current deadline, but still at least `next`.
      if (deadline != never_round() && deadline > next) {
        const Round gap = deadline - next;
        const std::uint64_t span = gap.fits_u64() ? gap.to_u64_saturating() - 1 : 1000;
        deadline = next + Round{rng.uniform(0, span)};
      } else {
        deadline = next;
      }
    } else if (kind < 19) {
      deadline = mail_only ? never_round() : next + Round{rng.uniform(50, 90)};
    } else {
      Round big = Round::pow2(64);  // at or past 2^64: the promoted tier
      if (big < next) big = next;
      deadline = big + Round{rng.uniform(0, 40)};
    }
  }

  Move step(const Round& r) {
    Move m;
    if (--steps_left == 0) {
      m.terminate = true;
      return m;
    }
    if (rng.uniform(0, 2) == 0) {
      m.mail_to = static_cast<int>(rng.uniform(0, static_cast<std::uint64_t>(t) - 2));
      if (m.mail_to >= self) ++m.mail_to;
    }
    draw(r + Round{1});
    return m;
  }

  Rng rng;
  int self;
  int t;
  bool mail_only;
  int steps_left;
  Round deadline = never_round();
};

class ScriptedProcess final : public IProcess {
 public:
  ScriptedProcess(DeadlineScript script, StepLog* log) : s_(std::move(script)), log_(log) {}
  Action on_round(const RoundContext& ctx, const InboxView&) override {
    log_->emplace_back(ctx.round, ctx.self);
    const DeadlineScript::Move m = s_.step(ctx.round);
    Action a;
    if (m.mail_to >= 0)
      a.sends.push_back(Outgoing{m.mail_to, MsgKind::kOther, std::make_shared<IntPayload>(0)});
    a.terminate = m.terminate;
    return a;
  }
  Round next_wake(const Round& now) const override {
    return s_.deadline > now ? s_.deadline : now;
  }

 private:
  DeadlineScript s_;
  StepLog* log_;
};

struct BruteForceRun {
  StepLog log;
  bool all_retired = false;
  bool deadlocked = false;
  std::uint64_t stepped_rounds = 0;
  std::uint64_t fast_forward_jumps = 0;
};

// The scheduler the wake queue must be indistinguishable from: every round
// scans every live process, steps those with mail or a deadline at or before
// the round in ascending id order, and -- with no mail in flight and nobody
// due next round -- jumps to the minimum deadline.
BruteForceRun brute_force(std::vector<DeadlineScript> s) {
  const std::size_t t = s.size();
  BruteForceRun out;
  std::vector<bool> alive(t, true);
  std::vector<bool> mail(t, false);
  std::size_t alive_n = t;
  Round r = 0;
  while (true) {
    std::vector<bool> next_mail(t, false);
    bool sent = false;
    for (std::size_t p = 0; p < t; ++p) {
      if (!alive[p] || !(mail[p] || s[p].deadline <= r)) continue;
      out.log.emplace_back(r, static_cast<int>(p));
      const DeadlineScript::Move m = s[p].step(r);
      if (m.mail_to >= 0) {
        next_mail[static_cast<std::size_t>(m.mail_to)] = true;
        sent = true;
      }
      if (m.terminate) {
        alive[p] = false;
        --alive_n;
      }
    }
    ++out.stepped_rounds;
    if (alive_n == 0) {
      out.all_retired = true;
      return out;
    }
    mail.swap(next_mail);
    r += Round{1};
    bool due = sent;
    const Round* min = nullptr;
    for (std::size_t p = 0; p < t; ++p) {
      if (!alive[p] || s[p].deadline == never_round()) continue;
      if (s[p].deadline <= r) due = true;
      if (min == nullptr || s[p].deadline < *min) min = &s[p].deadline;
    }
    if (due) continue;
    if (min == nullptr) {
      out.deadlocked = true;
      return out;
    }
    ++out.fast_forward_jumps;
    r = *min;
  }
}

TEST(WakeQueue, MatchesBruteForceSchedulerOnRandomDeadlines) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const int t = static_cast<int>(2 + seed % 23);
    std::vector<DeadlineScript> scripts;
    for (int p = 0; p < t; ++p)
      scripts.emplace_back(seed * 1000 + static_cast<std::uint64_t>(p), p, t, seed % 2 == 0);
    const BruteForceRun want = brute_force(scripts);

    StepLog got;
    std::vector<std::unique_ptr<IProcess>> procs;
    for (const DeadlineScript& s : scripts)
      procs.push_back(std::make_unique<ScriptedProcess>(s, &got));
    const RunMetrics m = run_simulation(std::move(procs), std::make_unique<NoFaults>(), {});

    SCOPED_TRACE("seed " + std::to_string(seed) + ", t " + std::to_string(t));
    const std::size_t common = std::min(got.size(), want.log.size());
    std::size_t i = 0;
    while (i < common && got[i] == want.log[i]) ++i;
    ASSERT_EQ(i, want.log.size())
        << "first divergence at step " << i << ": simulator "
        << (i < got.size() ? to_string(got[i].first) + "/p" + std::to_string(got[i].second) : "-")
        << ", brute force "
        << (i < want.log.size()
                ? to_string(want.log[i].first) + "/p" + std::to_string(want.log[i].second)
                : "-");
    ASSERT_EQ(got.size(), want.log.size());
    EXPECT_EQ(m.all_retired, want.all_retired);
    EXPECT_EQ(m.deadlocked, want.deadlocked);
    EXPECT_EQ(m.stepped_rounds, want.stepped_rounds);
    EXPECT_EQ(m.fast_forward_jumps, want.fast_forward_jumps);
  }
}

// Mails process 1 every round for `rounds` rounds, then terminates.
class Pinger final : public IProcess {
 public:
  explicit Pinger(std::uint64_t rounds) : rounds_(rounds) {}
  Action on_round(const RoundContext& ctx, const InboxView&) override {
    Action a;
    a.sends.push_back(Outgoing{1, MsgKind::kOther, std::make_shared<IntPayload>(0)});
    a.terminate = ctx.round + Round{1} >= Round{rounds_};
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  std::uint64_t rounds_;
};

// Protocol B's passive shape: every message received re-arms a timeout
// further out; the timeout firing ends the process.
class RearmingTimeout final : public IProcess {
 public:
  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    steps.push_back(ctx.round);
    Action a;
    if (inbox.empty()) {
      a.terminate = true;
    } else {
      deadline_ = ctx.round + Round{100};
    }
    return a;
  }
  Round next_wake(const Round& now) const override { return deadline_ > now ? deadline_ : now; }

  std::vector<Round> steps;

 private:
  Round deadline_ = Round{50};
};

TEST(WakeQueue, TimeoutRearmedLaterOnEveryMailFiresOnceAtTheFinalDeadline) {
  constexpr std::uint64_t kMails = 10'000;
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Pinger>(kMails));
  auto passive = std::make_unique<RearmingTimeout>();
  RearmingTimeout* rx = passive.get();
  procs.push_back(std::move(passive));
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  const RunMetrics m = sim.run();
  ASSERT_TRUE(m.all_retired);
  // Mail in rounds 1..kMails, then the last re-armed deadline: the ones
  // armed before it (the first at 50, inside the mail stretch) never fire.
  std::vector<Round> want;
  for (std::uint64_t r = 1; r <= kMails; ++r) want.emplace_back(r);
  want.emplace_back(kMails + 100);
  EXPECT_EQ(rx->steps, want);
  EXPECT_EQ(m.stepped_rounds, kMails + 2);
  EXPECT_EQ(m.fast_forward_jumps, 1u);
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

// Broadcasts once at round 0 to a shared set less itself (Protocol D's
// audience form), logs which rounds brought it mail, and terminates at
// round 2 either way.
class ExcludingBroadcaster final : public IProcess {
 public:
  ExcludingBroadcaster(SharedBits audience, int self, std::vector<int>& heard_by)
      : audience_(std::move(audience)), self_(self), heard_by_(heard_by) {}
  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    Action a;
    if (ctx.round == Round{0u} && audience_)
      a.sends.push_back(
          Outgoing{RecipientSet(audience_, self_), MsgKind::kOther, std::make_shared<IntPayload>(1)});
    if (!inbox.empty()) heard_by_.push_back(self_);
    a.terminate = ctx.round >= Round{2u};
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  SharedBits audience_;
  int self_;
  std::vector<int>& heard_by_;
};

// The network's loss rewrite of an audience with an excluded member: a
// partition severs the links across the split and loss draws thin the
// rest, one draw per remaining member, never for the excluded sender, and
// the rewritten audience reaches exactly the members the network let
// through.
TEST(Simulator, NetworkLossRewritesAnExcludedMemberAudience) {
  constexpr int t = 8;
  constexpr int sender = 3;
  for (double drop : {0.0, 0.5}) {
    std::vector<int> heard_by;
    std::vector<std::unique_ptr<IProcess>> procs;
    for (int i = 0; i < t; ++i)
      procs.push_back(std::make_unique<ExcludingBroadcaster>(
          i == sender ? share_bits(DynBitset(t, true)) : nullptr, i, heard_by));
    Simulator::Options opts;
    opts.net.partitions = {PartitionWindow{0, 2, 5}};  // {0..4} | {5..7}
    opts.net.drop = drop;
    opts.net.seed = 11;
    Simulator sim(std::move(procs), std::make_unique<NoFaults>(), opts);
    const RunMetrics m = sim.run();
    EXPECT_TRUE(m.all_retired);
    EXPECT_EQ(m.net_blocked, 3u) << "drop " << drop;  // 5, 6, 7; never the sender
    EXPECT_EQ(heard_by.size() + m.net_dropped, 4u) << "drop " << drop;  // 0, 1, 2, 4
    for (int id : heard_by) {
      EXPECT_LT(id, 5) << "drop " << drop;
      EXPECT_NE(id, sender) << "drop " << drop;
    }
    if (drop == 0.0) {
      EXPECT_EQ(heard_by, (std::vector<int>{0, 1, 2, 4}));
    }
  }
}

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
