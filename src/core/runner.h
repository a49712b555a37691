// One-call run harness: instantiate a protocol, execute it under a fault
// injector on the chosen executor, verify the outcome, and return the
// metrics.  run_do_all is the one entry point of every synchronous run: the
// registry protocols, and the run-scoped ProtocolInfos of run_byzantine and
// run_dynamic_do_all, whichever backend evaluates their rounds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/registry.h"
#include "core/verifier.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace dowork {

// Which executor evaluates the run's rounds (DESIGN.md "Execution
// substrates").  Under the deterministic schedule all three produce
// byte-identical metrics; only RunStats tells them apart.
//   * kSim    -- the simulator: the serial loop, or the unsupervised
//                RoundPool when RunOptions::sim_threads > 1;
//   * kPool   -- the simulator on a supervised RoundPool (sim/round_pool.h)
//                with the LiveOptions schedule and watchdog;
//   * kSocket -- one worker OS process per protocol process over localhost
//                sockets (substrate/socket_substrate.h).
enum class Backend : std::uint8_t { kSim, kPool, kSocket };

// Which localhost transport the socket backend speaks.  UDS is the default
// (lower per-frame latency, no port allocation); TCP exercises the same
// framing over a real INET stack (127.0.0.1, TCP_NODELAY).
enum class Transport : std::uint8_t { kUds, kTcp };

const char* to_string(Transport t);

// Supervision knobs of the live backends (kPool, kSocket); kSim ignores them.
struct LiveOptions {
  // kDeterministic: evaluated steps commit in ascending process id,
  // reproducing the simulator's serial interleaving exactly -- every metric
  // and adversary decision matches the sim run for run.
  // kFree: steps commit in completion order, so the OS scheduler becomes a
  // real nondeterministic adversary; only the paper bounds and the
  // verifier's invariants are meaningful assertions there.
  enum class Schedule : std::uint8_t { kDeterministic, kFree };
  Schedule schedule = Schedule::kDeterministic;

  // Per-round deadline: if a stepped round's evaluations have not all come
  // back within this wall-clock budget, the watchdog cancels the run and
  // aborts it with a structured RunMetrics::aborted_reason.
  std::uint64_t watchdog_ms = 10'000;

  // Teardown grace: how long the pool waits for its workers to exit after
  // cancellation before declaring them leaked (a step ignoring the
  // cooperative cancel token; see run_cancelled() in sim/round_pool.h).
  // The socket backend uses the same budget for its waitpid reap before
  // escalating to SIGKILL (processes, unlike threads, can always be reaped
  // -- the socket backend never leaks).
  std::uint64_t join_grace_ms = 2'000;

  // Socket backend only: the transport between coordinator and workers.
  Transport transport = Transport::kUds;
};

// What the run measured beyond the deterministic RunMetrics: wall clock,
// real-hardware throughput and the executor's teardown outcome.
struct RunStats {
  double wall_seconds = 0;   // the whole run: setup, rounds and teardown
  double units_per_sec = 0;  // work_total / wall_seconds (0 when no work)
  int threads = 0;           // evaluating threads, or worker processes on kSocket
  bool leaked = false;       // teardown gave up on a pool worker (its run is pinned)
};

struct RunResult {
  RunMetrics metrics;
  std::string violation;  // empty = verified OK
  RunStats stats;
  bool ok() const { return violation.empty(); }
};

struct RunOptions {
  std::uint64_t max_stepped_rounds = 50'000'000;
  // Override the protocol's declared strictness (ProtocolInfo::strict_one_op).
  bool enforce_strict = true;
  // Scenario hook: tunable protocol parameter, forwarded to the registry's
  // make_proc_param factory (e.g. baseline_checkpoint's units-per-checkpoint).
  std::optional<std::int64_t> protocol_param;
  // Network weather, forwarded to Simulator::Options verbatim (the default
  // no-op spec keeps the run bit-for-bit crash-only).
  NetSpec net;
  // kSim only -- round-parallel evaluation: shard each round's step list
  // over this many threads (RoundPool).  1 = the classic serial loop; any
  // value yields byte-identical results (see round_pool.h), so this is
  // purely a wall-clock knob for big single runs.  The supervised pool
  // sizes itself from the machine instead.
  int sim_threads = 1;
  Backend backend = Backend::kSim;
  LiveOptions live;  // kPool and kSocket only
};

// The Simulator::Options every backend derives from one run's options.
Simulator::Options simulator_options(const ProtocolInfo& info, const DoAllConfig& cfg,
                                     const RunOptions& opts);

RunResult run_do_all(const ProtocolInfo& info, const DoAllConfig& cfg,
                     std::unique_ptr<FaultInjector> faults, const RunOptions& opts = {});

// Convenience overload: lookup by protocol name.
RunResult run_do_all(const std::string& protocol, const DoAllConfig& cfg,
                     std::unique_ptr<FaultInjector> faults, const RunOptions& opts = {});

}  // namespace dowork
