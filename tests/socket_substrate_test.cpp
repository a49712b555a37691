// The socket-process substrate against the simulator as differential
// oracle (src/substrate/socket_substrate.h): metric-for-metric equality
// across a real OS-process boundary for A/B/C/D under scripted and
// adaptive adversaries, real SIGKILLs at every kill-point class, both
// transports, and process-grade supervision -- a hung or unexpectedly dead
// worker degrades into a structured abort row within the deadline, never a
// hung test.
//
// This binary doubles as its own worker image: main() defers to
// maybe_socket_worker() before gtest, so the coordinator's
// `/proc/self/exe --dowork-socket-worker ...` re-executions land in the
// worker loop instead of re-running the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/runner.h"
#include "harness/fault_spec.h"
#include "protocols/protocol_c.h"
#include "substrate/differential.h"
#include "substrate/socket_substrate.h"

namespace dowork::substrate {
namespace {

using harness::FaultSpec;

// Options for one run on the socket backend.
RunOptions socket_options(Transport transport = Transport::kUds) {
  RunOptions opts;
  opts.backend = Backend::kSocket;
  opts.live.transport = transport;
  return opts;
}

// One differential case with the socket backend as the non-oracle leg.
DiffResult expect_socket_differential_ok(const std::string& protocol, std::int64_t n, int t,
                                         const FaultSpec& spec,
                                         Transport transport = Transport::kUds) {
  DoAllConfig cfg;
  cfg.n = n;
  cfg.t = t;
  DiffResult d =
      run_differential(protocol, cfg, [&] { return spec.make(); }, socket_options(transport));
  EXPECT_EQ(d.divergence, "") << protocol << " n=" << n << " t=" << t << " faults "
                              << spec.to_string() << " transport " << to_string(transport);
  EXPECT_FALSE(d.live.stats.leaked);
  EXPECT_EQ(d.live.stats.threads, t);  // one worker PROCESS per protocol process
  return d;
}

FaultSpec chunk_cascade(std::int64_t n, int t) {
  return FaultSpec::cascade(
      static_cast<std::uint64_t>(ceil_div(n, int_sqrt_ceil(t)) + 1), t - 1, /*prefix=*/1);
}

// Scoped env hook for the scripted worker-misbehavior tests; the variable
// is inherited through fork+exec into every worker of the run.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(SocketSubstrateTest, DifferentialFaultFree) {
  expect_socket_differential_ok("A", 64, 8, FaultSpec::none());
  expect_socket_differential_ok("B", 64, 8, FaultSpec::none());
  expect_socket_differential_ok("C", 32, 8, FaultSpec::none());
  expect_socket_differential_ok("D", 64, 8, FaultSpec::none());
}

TEST(SocketSubstrateTest, DifferentialScriptedCrashes) {
  // Every crash here is a real SIGKILL of a worker process; the oracle
  // still demands metric-for-metric equality with the in-process sim.
  expect_socket_differential_ok("A", 64, 8, chunk_cascade(64, 8));
  expect_socket_differential_ok("B", 64, 8, chunk_cascade(64, 8));
  expect_socket_differential_ok("C", 32, 8, FaultSpec::cascade(3, 7, /*prefix=*/0));
  expect_socket_differential_ok("D", 64, 8, FaultSpec::cascade(2, 3, /*prefix=*/1));
}

TEST(SocketSubstrateTest, DifferentialAdaptiveAdversaries) {
  // Adaptive strategies observe committed state; the deterministic barrier
  // makes those observations identical across the process boundary, so the
  // adversary's decisions replay exactly -- the strongest equality claim
  // the substrate makes.
  expect_socket_differential_ok("A", 64, 8, FaultSpec::adaptive("greedy", 7, /*seed=*/3));
  expect_socket_differential_ok("B", 64, 8, FaultSpec::adaptive("chain", 7, /*seed=*/3));
  expect_socket_differential_ok("D", 64, 8, FaultSpec::adaptive("greedy", 3, /*seed=*/3));
}

TEST(SocketSubstrateTest, DCoordRevertMatchesAcrossTheWorkerBoundary) {
  // D_coord's majority-loss revert (protocol_d_coord_test's schedule): in
  // its revert round a process still cuts a fresh D slice and may perform
  // one unit before Protocol A starts.  No experiment row runs it, so this
  // pins that round across the worker boundary.
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 1; p < 6; ++p) entries.push_back({p, 2, CrashPlan{true, 0}});
  const DiffResult d =
      expect_socket_differential_ok("D_coord", 64, 8, FaultSpec::scheduled(std::move(entries)));
  EXPECT_GT(d.live.metrics.messages_of(MsgKind::kCheckpoint), 0u);  // Protocol A ran
  EXPECT_EQ(d.live.metrics.work_total, 77u);
}

// Forwards every decision to `inner` and notes, for each ordinary message
// a step commits, its round, the number of stepped rounds started so far,
// and the freshest stamp its view carries.  A report stamps its own group
// entry with the round's stepped index and every other stamp is older, so
// the freshest stamp is the index of the round it was sent in.
struct StampNote {
  Round round;
  std::uint64_t started = 0;
  std::uint64_t freshest = 0;
  bool operator==(const StampNote&) const = default;
};

class StampRecorder final : public FaultInjector {
 public:
  StampRecorder(std::unique_ptr<FaultInjector> inner, std::vector<StampNote>* notes)
      : inner_(std::move(inner)), notes_(notes) {}
  void attach(const SimObservable& sim) override { inner_->attach(sim); }
  void on_round_start(const Round& round) override {
    ++started_;
    inner_->on_round_start(round);
  }
  std::optional<CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                   const SimSnapshot& snap) override {
    for (const Outgoing& o : action.sends) {
      const auto* m = detail::payload_as<OrdinaryC>(o.payload.get());
      if (m == nullptr) continue;
      std::uint64_t freshest = m->view.round0;
      for (std::uint64_t stamp : m->view.round) freshest = std::max(freshest, stamp);
      notes_->push_back(StampNote{round, started_, freshest});
    }
    return inner_->inspect(proc, round, action, snap);
  }

 private:
  std::unique_ptr<FaultInjector> inner_;
  std::vector<StampNote>* notes_;
  std::uint64_t started_ = 0;
};

TEST(SocketSubstrateTest, SteppedIndexCrossesTheWorkerBoundary) {
  // n + t = 64 puts C's first takeover past 2^64, and a cascade crashes
  // two active processes in turn: the reports' rounds are promoted and
  // fast-forward jumps separate them.  On every executor -- the serial
  // simulator, the supervised round pool's worker threads, and worker OS
  // processes reading the index from their step frames -- each report
  // carries its round's stepped index, and all three note the same reports.
  const DoAllConfig cfg{60, 4};
  std::vector<StampNote> notes[3];
  const Backend backends[3] = {Backend::kSim, Backend::kPool, Backend::kSocket};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE("backend " + std::to_string(i));
    RunOptions opts;
    opts.backend = backends[i];
    const RunResult r = run_do_all(
        "C", cfg,
        std::make_unique<StampRecorder>(FaultSpec::cascade(3, 2, /*prefix=*/0).make(), &notes[i]),
        opts);
    EXPECT_EQ(r.violation, "");
    EXPECT_GT(r.metrics.crashes, 0u);
    if (backends[i] == Backend::kSocket) {
      EXPECT_EQ(r.stats.threads, cfg.t);
    }
  }
  ASSERT_GE(notes[0].size(), 10u);
  EXPECT_FALSE(notes[0].back().round.fits_u64());
  for (const StampNote& n : notes[0]) EXPECT_EQ(n.freshest, n.started) << n.round.to_string();
  EXPECT_EQ(notes[1], notes[0]) << "round pool";
  EXPECT_EQ(notes[2], notes[0]) << "socket";
}

TEST(SocketSubstrateTest, TcpTransportMatchesToo) {
  expect_socket_differential_ok("B", 64, 8, chunk_cascade(64, 8), Transport::kTcp);
}

TEST(SocketSubstrateTest, KillPointCensusMatchesRoundPool) {
  // The census is plan-derived and counted by the simulator, so under the
  // deterministic schedule the socket run (whose SIGKILLs land where the
  // census says) must count exactly what the round pool's run counts --
  // same case, same counts.
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  // The cascade adversary crashes on work actions (round-barrier kills);
  // scripted entries sweeping proc 0's early actions land on B's
  // checkpoint broadcasts with a cut (prefix=1 -> mid-broadcast) or full
  // (prefix=all -> send-commit) delivery.
  std::vector<FaultSpec> cases;
  cases.push_back(chunk_cascade(64, 8));
  for (std::size_t prefix : {std::size_t{1}, std::size_t{1'000'000}})
    for (std::uint64_t nth = 1; nth <= 12; ++nth) {
      ScheduledFaults::Entry e;
      e.proc = 0;
      e.on_nth_action = nth;
      e.plan.work_completes = true;
      e.plan.deliver_prefix = prefix;
      cases.push_back(FaultSpec::scheduled({e}));
    }
  std::uint64_t send_commit = 0, mid_broadcast = 0, round_barrier = 0;
  for (const FaultSpec& spec : cases) {
    RunOptions pool_opts;
    pool_opts.backend = Backend::kPool;
    const RunResult sock = run_do_all("B", cfg, spec.make(), socket_options());
    const RunResult pool = run_do_all("B", cfg, spec.make(), pool_opts);
    ASSERT_EQ(sock.violation, "") << spec.to_string();
    const KillCensus& k = sock.metrics.kills;
    EXPECT_EQ(k.send_commit, pool.metrics.kills.send_commit) << spec.to_string();
    EXPECT_EQ(k.mid_broadcast, pool.metrics.kills.mid_broadcast) << spec.to_string();
    EXPECT_EQ(k.round_barrier, pool.metrics.kills.round_barrier) << spec.to_string();
    EXPECT_EQ(k.total(), sock.metrics.crashes) << spec.to_string();
    send_commit += k.send_commit;
    mid_broadcast += k.mid_broadcast;
    round_barrier += k.round_barrier;
  }
  // Between them the cases exercise every kill-point class as a real
  // signal: full SIGKILL, torn-frame SIGKILL, and barrier SIGKILL.
  EXPECT_GT(send_commit, 0u);
  EXPECT_GT(mid_broadcast, 0u);
  EXPECT_GT(round_barrier, 0u);
}

TEST(SocketSubstrateTest, MidBroadcastKillLeavesARecoverableTornFrame) {
  // Script a deliver_prefix=1 crash onto a multi-recipient broadcast: the
  // worker flushes a torn frame prefix before SIGKILLing itself, and the
  // coordinator must recover (discard the ghost bytes, count the crash)
  // with metrics equal to the sim leg.
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  bool saw_mid_broadcast = false;
  for (std::uint64_t nth = 1; nth <= 12 && !saw_mid_broadcast; ++nth) {
    ScheduledFaults::Entry e;
    e.proc = 0;
    e.on_nth_action = nth;
    e.plan.work_completes = true;
    e.plan.deliver_prefix = 1;
    const FaultSpec spec = FaultSpec::scheduled({e});
    DoAllConfig c = cfg;
    DiffResult d = run_differential("B", c, [&] { return spec.make(); }, socket_options());
    ASSERT_EQ(d.divergence, "") << "nth=" << nth;
    saw_mid_broadcast = d.live.metrics.kills.mid_broadcast > 0;
  }
  EXPECT_TRUE(saw_mid_broadcast);
}

TEST(SocketSubstrateTest, HungWorkerDegradesIntoAStructuredAbort) {
  // A worker that wedges at its first step (the scripted env hook; a real
  // stall looks identical to the coordinator) must produce an aborted row
  // with cause=watchdog detail within the deadline -- never a hung test,
  // never a leaked process.
  ScopedEnv hook("DOWORK_SOCKET_TEST_HANG_PROC", "2");
  DoAllConfig cfg;
  cfg.n = 16;
  cfg.t = 4;
  RunOptions opts = socket_options();
  opts.live.watchdog_ms = 300;
  const auto start = std::chrono::steady_clock::now();
  const RunResult r = run_do_all("B", cfg, FaultSpec::none().make(), opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_TRUE(r.metrics.aborted);
  EXPECT_NE(r.metrics.aborted_reason.find("watchdog"), std::string::npos)
      << r.metrics.aborted_reason;
  EXPECT_EQ(r.metrics.abort_detail.rfind("cause=watchdog", 0), 0u)
      << r.metrics.abort_detail;
  EXPECT_NE(r.metrics.abort_detail.find("proc=2"), std::string::npos)
      << r.metrics.abort_detail;
  EXPECT_NE(r.violation.find("aborted"), std::string::npos) << r.violation;
  EXPECT_FALSE(r.stats.leaked);  // SIGKILL + blocking waitpid: always reapable
  EXPECT_LT(elapsed, std::chrono::seconds(60));
}

TEST(SocketSubstrateTest, UnexpectedWorkerExitIsAStructuredAbortNotACrash) {
  // A model-ALIVE worker dying outside the fault plan (the scripted _exit
  // hook; a real segfault looks identical) is a supervision event: the run
  // aborts with cause=worker-eof naming the process, the harness survives.
  ScopedEnv hook("DOWORK_SOCKET_TEST_EXIT_PROC", "1");
  DoAllConfig cfg;
  cfg.n = 16;
  cfg.t = 4;
  const RunResult r = run_do_all("B", cfg, FaultSpec::none().make(), socket_options());
  EXPECT_TRUE(r.metrics.aborted);
  EXPECT_EQ(r.metrics.abort_detail.rfind("cause=worker-eof", 0), 0u)
      << r.metrics.abort_detail;
  EXPECT_NE(r.metrics.abort_detail.find("proc=1"), std::string::npos)
      << r.metrics.abort_detail;
  EXPECT_FALSE(r.stats.leaked);
}

TEST(SocketSubstrateTest, CleanRunControl) {
  // The same shapes as the misbehavior tests, no hooks: no abort, every
  // worker process spawned and reaped, throughput measured.
  DoAllConfig cfg;
  cfg.n = 16;
  cfg.t = 4;
  const RunResult r = run_do_all("B", cfg, FaultSpec::none().make(), socket_options());
  EXPECT_EQ(r.violation, "");
  EXPECT_FALSE(r.metrics.aborted);
  EXPECT_TRUE(r.metrics.abort_detail.empty());
  EXPECT_EQ(r.stats.threads, 4);
  EXPECT_FALSE(r.stats.leaked);
  EXPECT_GT(r.stats.units_per_sec, 0.0);
}

TEST(SocketSubstrateTest, FreeScheduleVerifiesUnderRealProcesses) {
  // No equality oracle under the free schedule (commit order belongs to
  // the OS), but the verifier's invariants must hold on every execution.
  DoAllConfig cfg;
  cfg.n = 64;
  cfg.t = 8;
  RunOptions opts = socket_options();
  opts.live.schedule = LiveOptions::Schedule::kFree;
  const RunResult r = run_do_all("B", cfg, chunk_cascade(64, 8).make(), opts);
  EXPECT_EQ(r.violation, "");
  EXPECT_FALSE(r.stats.leaked);
}

}  // namespace
}  // namespace dowork::substrate

// Worker re-entry shim: coordinator-spawned re-executions of this binary
// must run the worker loop, not the test suite.
int main(int argc, char** argv) {
  if (int code = dowork::substrate::maybe_socket_worker(argc, argv); code >= 0) return code;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
