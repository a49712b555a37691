#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/registry.h"
#include "core/runner.h"
#include "core/verifier.h"
#include "sim/fault_injector.h"
#include "sim/round_pool.h"
#include "substrate/differential.h"

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

// --- idle steps commit without inspection -----------------------------------

// Counts a wrapped process's idle and non-idle steps.  Atomic: on a round
// pool, steps evaluate on worker threads.
struct StepCounts {
  std::atomic<std::uint64_t> idle{0};
  std::atomic<std::uint64_t> busy{0};
};

class CountedProcess final : public IProcess {
 public:
  CountedProcess(std::unique_ptr<IProcess> inner, StepCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}
  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    Action a = inner_->on_round(ctx, inbox);
    ++(a.idle() ? counts_->idle : counts_->busy);
    return a;
  }
  Round next_wake(const Round& now) const override { return inner_->next_wake(now); }
  std::int64_t known_done_units() const override { return inner_->known_done_units(); }

 private:
  std::unique_ptr<IProcess> inner_;
  StepCounts* counts_;
};

// Forwards to `inner`, counting inspect() calls; an idle action reaching it
// fails the test.
class NoIdleInspect final : public FaultInjector {
 public:
  NoIdleInspect(std::unique_ptr<FaultInjector> inner, std::uint64_t* calls)
      : inner_(std::move(inner)), calls_(calls) {}
  std::optional<CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                   const SimSnapshot& snap) override {
    ++*calls_;
    EXPECT_FALSE(action.idle()) << "process " << proc << " inspected idle in round "
                                << round.to_string();
    return inner_->inspect(proc, round, action, snap);
  }

 private:
  std::unique_ptr<FaultInjector> inner_;
  std::uint64_t* calls_;
};

TEST(Simulator, IdleStepsCommitWithoutInspect) {
  // t = 16: groups of 4, subchunks of n/t = 16 units, chunks of 64.  The
  // cascade lets each active process finish about a chunk, so takeovers
  // resume from every checkpoint form while passive processes receive them.
  const DoAllConfig cfg{256, 16};
  for (const char* name : {"A", "B"}) {
    const ProtocolInfo& info = find_protocol(name);
    RunMetrics runs[2];
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::string(name) + " on " + std::to_string(threads) + " thread(s)");
      StepCounts counts;
      std::uint64_t inspected = 0;
      std::vector<std::unique_ptr<IProcess>> procs = make_processes(info, cfg);
      for (auto& p : procs) p = std::make_unique<CountedProcess>(std::move(p), &counts);
      Simulator sim(std::move(procs),
                    std::make_unique<NoIdleInspect>(
                        std::make_unique<WorkCascadeFaults>(65, cfg.t - 1, /*deliver_prefix=*/1),
                        &inspected),
                    simulator_options(info, cfg, RunOptions{}));
      // A 2-thread RoundPool: the executor Backend::kPool installs, at a
      // fixed thread count.  Its steps commit through the same path.
      std::optional<RoundPool> pool;
      if (threads > 1) sim.set_step_executor(&pool.emplace(threads, /*min_steps_per_shard=*/1));
      RunMetrics& m = runs[threads - 1];
      m = sim.run();
      EXPECT_EQ(verify_run(info, cfg, m), "");
      EXPECT_GT(m.crashes, 0u);
      EXPECT_GT(counts.idle.load(), 0u);  // the receipts this path skips
      EXPECT_EQ(inspected, counts.busy.load());
    }
    EXPECT_EQ(substrate::compare_metrics(runs[0], runs[1]), "") << name;
  }
}

// --- the stepped index and the per-round folds --------------------------------

using IndexLog = std::vector<std::pair<Round, std::uint64_t>>;

// Steps at the rounds of a fixed schedule, noting each step's (round,
// stepped index) pair in its own slot of `logs` (slots are per process, so
// pool workers never share one).  After its last scheduled round it
// terminates, or with `linger` turns mail-only (no mail comes, so the run
// deadlocks).  From `wedge_at` on, on_round spins until the round pool's
// watchdog cancels the run.
class ScheduleRecorder final : public IProcess {
 public:
  ScheduleRecorder(std::vector<Round> at, IndexLog* log, bool linger = false,
                   std::optional<Round> wedge_at = std::nullopt)
      : at_(std::move(at)), log_(log), linger_(linger), wedge_at_(std::move(wedge_at)) {}
  Action on_round(const RoundContext& ctx, const InboxView&) override {
    log_->emplace_back(ctx.round, ctx.stepped_index);
    if (wedge_at_ && ctx.round >= *wedge_at_) {
      while (!run_cancelled()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return Action::none();
    }
    while (next_ < at_.size() && at_[next_] <= ctx.round) ++next_;
    Action a;
    a.work = 1;
    a.terminate = next_ == at_.size() && !linger_;
    return a;
  }
  Round next_wake(const Round& now) const override {
    if (next_ == at_.size()) return never_round();
    return at_[next_] > now ? at_[next_] : now;
  }

 private:
  std::vector<Round> at_;
  std::size_t next_ = 0;
  IndexLog* log_;
  bool linger_;
  std::optional<Round> wedge_at_;
};

// Three overlapping schedules whose stepped rounds are 0, 1, 2, 10,
// 2^64 - 1, 2^64, 2^64 + 5, 2^64 + 6, 2^70 and 2^100: fast-forward jumps
// below, across and past 2^64, and consecutive rounds on both sides of it.
std::vector<std::vector<Round>> crossing_schedules() {
  const Round big = Round::pow2(64);
  return {{Round{0}, Round{1}, Round{2}, big + Round{5}, big + Round{6}, Round::pow2(70)},
          {Round{1}, Round{10}, big + Round{6}, Round::pow2(100)},
          {Round{2}, Round{UINT64_MAX}, big, big + Round{5}}};
}

// Runs one ScheduleRecorder per schedule, serially or on a RoundPool of
// `threads`, and returns every process's log.
std::vector<IndexLog> run_recorders(const std::vector<std::vector<Round>>& schedules,
                                    int threads) {
  std::vector<IndexLog> logs(schedules.size());
  std::vector<std::unique_ptr<IProcess>> procs;
  for (std::size_t p = 0; p < schedules.size(); ++p)
    procs.push_back(std::make_unique<ScheduleRecorder>(schedules[p], &logs[p]));
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  std::optional<RoundPool> pool;
  if (threads > 1) sim.set_step_executor(&pool.emplace(threads, /*min_steps_per_shard=*/1));
  const RunMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(m.stepped_rounds, 10u);
  return logs;
}

TEST(Simulator, SteppedIndexCountsSteppedRounds) {
  const std::vector<IndexLog> serial = run_recorders(crossing_schedules(), 1);
  // Merged in round order, the pairs number the stepped rounds 1..k: every
  // process stepped in one round reads that round's index, and the index
  // rises by one per stepped round however far the clock jumps.
  std::map<Round, std::uint64_t> index_of;
  for (const IndexLog& log : serial) {
    for (const auto& [round, index] : log) {
      const auto [it, fresh] = index_of.emplace(round, index);
      EXPECT_EQ(it->second, index) << "round " << round.to_string();
    }
  }
  ASSERT_EQ(index_of.size(), 10u);
  std::uint64_t want = 1;
  for (const auto& [round, index] : index_of) EXPECT_EQ(index, want++) << round.to_string();
  EXPECT_EQ(index_of.rbegin()->first, Round::pow2(100));
  // A process's own log is in step order, so its indexes rise too.
  for (const IndexLog& log : serial)
    for (std::size_t i = 1; i < log.size(); ++i) EXPECT_LT(log[i - 1].second, log[i].second);

  // Pool workers read the same index the serial loop hands out.
  EXPECT_EQ(run_recorders(crossing_schedules(), 2), serial);
}

// Keeps the per-round reference the simulator's folds must equal: the
// stepped rounds in order, and available_processor_steps summed as the
// simulator once did -- the live count at each stepped round, plus each
// fast-forward gap times the live count across it.
class FoldReference final : public FaultInjector {
 public:
  FoldReference(std::vector<Round>* rounds, Round* processor_steps)
      : rounds_(rounds), steps_(processor_steps) {}
  void attach(const SimObservable& sim) override { sim_ = &sim; }
  void on_round_start(const Round& round) override {
    std::uint64_t alive = 0;
    for (int p = 0; p < sim_->num_procs(); ++p) alive += sim_->is_active(p) ? 1 : 0;
    if (!rounds_->empty()) {
      const Round floor = rounds_->back() + Round{1};
      if (round > floor) *steps_ += (round - floor) * alive;
    }
    *steps_ += Round{alive};
    rounds_->push_back(round);
  }
  std::optional<CrashPlan> inspect(int, const Round&, const Action&, const SimSnapshot&) override {
    return std::nullopt;
  }

 private:
  const SimObservable* sim_ = nullptr;
  std::vector<Round>* rounds_;
  Round* steps_;
};

TEST(Simulator, PerRoundFoldsAreExact) {
  const Round big = Round::pow2(64);
  struct Case {
    std::string name;
    std::vector<std::vector<Round>> schedules;
    bool linger = false;
    std::uint64_t cap = 50'000'000;
  };
  const std::vector<Case> cases = {
      {"all retired", crossing_schedules()},
      // The cap stops the run right after a promoted round.
      {"round cap",
       {{Round{0}, Round{1}, Round{5}, Round{6}, big + Round{1}, big + Round{2}, big + Round{3}},
        {Round{2}, big + Round{2}, Round::pow2(80)}},
       false,
       7},
      {"deadlock", {{Round{0}, Round{7}, Round::pow2(65)}, {Round{7}, Round{9}}}, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<Round> rounds;
    Round processor_steps;
    std::vector<IndexLog> logs(c.schedules.size());
    std::vector<std::unique_ptr<IProcess>> procs;
    for (std::size_t p = 0; p < c.schedules.size(); ++p)
      procs.push_back(std::make_unique<ScheduleRecorder>(c.schedules[p], &logs[p], c.linger));
    Simulator::Options opts;
    opts.max_stepped_rounds = c.cap;
    Simulator sim(std::move(procs), std::make_unique<FoldReference>(&rounds, &processor_steps),
                  opts);
    const RunMetrics m = sim.run();
    EXPECT_EQ(m.hit_round_cap, c.cap < 50'000'000);
    EXPECT_EQ(m.deadlocked, c.linger);
    ASSERT_EQ(m.stepped_rounds, rounds.size());
    EXPECT_EQ(m.last_retire_round, rounds.back());
    EXPECT_EQ(m.available_processor_steps, processor_steps);
    EXPECT_GE(m.fast_forward_jumps, 2u);
  }

  // The watchdog-abort exit: the aborted round committed nothing, so the
  // last round reported is the one stepped before it -- here a promoted
  // round, reached by a jump past 2^64 -- while the aborted round's live
  // processes still count as available (the round was entered).
  SCOPED_TRACE("watchdog abort");
  const std::vector<std::vector<Round>> schedules = {
      {Round{0}, Round{1}, big + Round{9}, big + Round{10}},
      {Round{1}, big + Round{9}, big + Round{10}}};
  std::vector<IndexLog> logs(schedules.size());
  ProtocolInfo info;
  info.name = "wedge_after_a_jump";
  info.make_proc = [&](const DoAllConfig&, int self) -> std::unique_ptr<IProcess> {
    const std::size_t p = static_cast<std::size_t>(self);
    return std::make_unique<ScheduleRecorder>(schedules[p], &logs[p], false,
                                              big + Round{10});
  };
  std::vector<Round> rounds;
  Round processor_steps;
  RunOptions opts;
  opts.backend = Backend::kPool;
  opts.live.watchdog_ms = 200;
  const RunResult r = run_do_all(info, DoAllConfig{2, 2},
                                 std::make_unique<FoldReference>(&rounds, &processor_steps), opts);
  ASSERT_TRUE(r.metrics.aborted) << r.metrics.aborted_reason;
  EXPECT_FALSE(r.stats.leaked);
  // on_round_start saw the aborted round too; stepped_rounds did not.
  ASSERT_EQ(rounds.size(), r.metrics.stepped_rounds + 1);
  EXPECT_EQ(rounds.back(), big + Round{10});
  EXPECT_EQ(r.metrics.last_retire_round, big + Round{9});
  EXPECT_EQ(r.metrics.available_processor_steps, processor_steps);
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
    const std::uint64_t kind = rng.uniform(0, 27);
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
    } else if (kind < 20) {
      Round big = Round::pow2(64);  // at or past 2^64: the promoted tier
      if (big < next) big = next;
      deadline = big + Round{rng.uniform(0, 40)};
    } else if (kind < 24) {
      // A gap of 2^k: every calendar bucket, the top one included.
      const unsigned k = static_cast<unsigned>(rng.uniform(0, 62));
      deadline = next + Round::pow2(k) + Round{rng.uniform(0, 3)};
    } else {
      // Astride 2^64, so wakes cross between the tiers both ways.
      deadline = Round::pow2(64) - Round{40} + Round{rng.uniform(0, 80)};
      if (deadline < next) deadline = next;
    }
  }

  Move step(const Round& r) {
    Move m;
    // Stepped by mail with a far deadline armed: sometimes retire here, so
    // the queue drops a wake that never came due.
    const bool far_armed = deadline != never_round() && deadline > r + Round{40};
    if (--steps_left == 0 || (far_armed && rng.uniform(0, 3) == 0)) {
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

std::vector<DeadlineScript> deadline_scripts(std::uint64_t seed) {
  const int t = static_cast<int>(2 + seed % 23);
  std::vector<DeadlineScript> scripts;
  for (int p = 0; p < t; ++p)
    scripts.emplace_back(seed * 1000 + static_cast<std::uint64_t>(p), p, t, seed % 2 == 0);
  return scripts;
}

// Runs the scripts on the simulator; with `threads` > 1 the round's
// evaluations are sharded over a RoundPool, each process logging its own
// steps, and the returned log is their merge in (round, id) order -- the
// order the serial run logs in.  A script run takes at most a few
// thousand stepped rounds, so the cap ends a broken queue's run quickly.
RunMetrics run_scripts(const std::vector<DeadlineScript>& scripts, StepLog& log,
                       int threads = 1) {
  std::vector<StepLog> own(threads > 1 ? scripts.size() : 0);
  std::vector<std::unique_ptr<IProcess>> procs;
  for (std::size_t p = 0; p < scripts.size(); ++p)
    procs.push_back(std::make_unique<ScriptedProcess>(scripts[p], threads > 1 ? &own[p] : &log));
  Simulator::Options opts;
  opts.max_stepped_rounds = 100'000;
  if (threads <= 1) return run_simulation(std::move(procs), std::make_unique<NoFaults>(), opts);
  RoundPool pool(threads, /*min_steps_per_shard=*/1);
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), opts);
  sim.set_step_executor(&pool);
  const RunMetrics m = sim.run();
  pool.shutdown();
  for (const StepLog& l : own) log.insert(log.end(), l.begin(), l.end());
  std::sort(log.begin(), log.end());
  return m;
}

std::string describe_step(const StepLog& log, std::size_t i) {
  return i < log.size() ? to_string(log[i].first) + "/p" + std::to_string(log[i].second) : "-";
}

TEST(WakeQueue, MatchesBruteForceSchedulerOnRandomDeadlines) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::vector<DeadlineScript> scripts = deadline_scripts(seed);
    const BruteForceRun want = brute_force(scripts);
    StepLog got;
    const RunMetrics m = run_scripts(scripts, got);

    SCOPED_TRACE("seed " + std::to_string(seed) + ", t " + std::to_string(scripts.size()));
    const std::size_t common = std::min(got.size(), want.log.size());
    std::size_t i = 0;
    while (i < common && got[i] == want.log[i]) ++i;
    ASSERT_EQ(i, want.log.size()) << "first divergence at step " << i << ": simulator "
                                  << describe_step(got, i) << ", brute force "
                                  << describe_step(want.log, i);
    ASSERT_EQ(got.size(), want.log.size());
    EXPECT_FALSE(m.hit_round_cap);
    EXPECT_EQ(m.all_retired, want.all_retired);
    EXPECT_EQ(m.deadlocked, want.deadlocked);
    EXPECT_EQ(m.stepped_rounds, want.stepped_rounds);
    EXPECT_EQ(m.fast_forward_jumps, want.fast_forward_jumps);
  }
}

TEST(WakeQueue, RoundPoolStepsTheSerialScheduleOnRandomDeadlines) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const std::vector<DeadlineScript> scripts = deadline_scripts(seed);
    StepLog serial;
    StepLog pooled;
    const RunMetrics ms = run_scripts(scripts, serial);
    const RunMetrics mp = run_scripts(scripts, pooled, /*threads=*/4);

    SCOPED_TRACE("seed " + std::to_string(seed) + ", t " + std::to_string(scripts.size()));
    ASSERT_FALSE(ms.hit_round_cap);
    ASSERT_EQ(pooled, serial);
    EXPECT_EQ(mp.stepped_rounds, ms.stepped_rounds);
    EXPECT_EQ(mp.fast_forward_jumps, ms.fast_forward_jumps);
    EXPECT_EQ(mp.deadlocked, ms.deadlocked);
    EXPECT_EQ(mp.all_retired, ms.all_retired);
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
