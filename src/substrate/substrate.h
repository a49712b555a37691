// The live execution backends: the same IProcess protocol objects, run
// beside the deterministic Simulator (src/sim/) on two executors.
//
//   * Backend::kPool   -- run_live_do_all: the in-process RoundPool
//                         (sim/round_pool.h) under supervision, with the
//                         free commit schedule and a watchdog that turns a
//                         hung step into a structured abort instead of a
//                         hung run.
//   * Backend::kSocket -- the SocketSubstrate
//                         (substrate/socket_substrate.h): one worker OS
//                         process per protocol process over localhost
//                         UDS/TCP, crash = SIGKILL at the kill-point
//                         taxonomy, process-grade supervision (connect/
//                         accept/read deadlines, waitpid reaping).
//
// Both drive the identical protocol code, fault injectors and verifier;
// under the deterministic schedule their metrics match the simulator's
// field for field, which is what makes the sim a differential-testing
// oracle (substrate/differential.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/runner.h"

namespace dowork::substrate {

enum class Backend : std::uint8_t { kPool, kSocket };

// Which localhost transport the socket backend speaks.  UDS is the default
// (lower per-frame latency, no port allocation); TCP exercises the same
// framing over a real INET stack (127.0.0.1, TCP_NODELAY).
enum class Transport : std::uint8_t { kUds, kTcp };

const char* to_string(Transport t);

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

  // Socket backend only: transport and the setup deadline covering worker
  // spawn + connect + hello (bounded retry with backoff inside it).
  Transport transport = Transport::kUds;
  std::uint64_t spawn_timeout_ms = 10'000;
};

// What a live backend measured beyond the shared RunMetrics: real-hardware
// throughput (units/sec next to simulated-round metrics), the kill-point
// census, and the teardown outcome.
struct LiveStats {
  double wall_seconds = 0;
  double units_per_sec = 0;  // work_total / wall_seconds (0 when no work)
  KillCensus kills;          // crashes by kill point (simulator.h)
  int threads = 0;           // pool threads, or worker processes on kSocket
  bool leaked = false;       // teardown gave up on a worker (its run is pinned)
};

struct LiveRunResult {
  RunResult run;
  LiveStats stats;
};

// Live counterpart of run_do_all (core/runner.h): same protocol
// instantiation, fault injector and verifier, executed on a supervised
// RoundPool of max(2, hardware threads) workers.  The pool's thread count
// is measured, not configured; RunOptions::sim_threads does not apply.
LiveRunResult run_live_do_all(const ProtocolInfo& info, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts = {},
                              const LiveOptions& live = {});
LiveRunResult run_live_do_all(const std::string& protocol, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts = {},
                              const LiveOptions& live = {});

}  // namespace dowork::substrate
