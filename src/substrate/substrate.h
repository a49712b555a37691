// The live execution backends: the same IProcess protocol objects, run
// beside the deterministic Simulator (src/sim/) on two executors.  Both are
// reached only through run_do_all (core/runner.h), which picks one by
// RunOptions::backend and owns the shared validate, time and verify steps.
//
//   * Backend::kPool   -- run_pool: the in-process RoundPool
//                         (sim/round_pool.h) under supervision, with the
//                         free commit schedule and a watchdog that turns a
//                         hung step into a structured abort instead of a
//                         hung run.
//   * Backend::kSocket -- run_socket (substrate/socket_substrate.h): one
//                         worker OS process per protocol process over
//                         localhost UDS/TCP, crash = SIGKILL at the
//                         kill-point taxonomy, process-grade supervision
//                         (connect/accept/read deadlines, waitpid reaping).
//
// Both drive the identical protocol code, fault injectors and verifier;
// under the deterministic schedule their metrics -- the simulator's kill
// census included -- match the simulator's field for field, which is what
// makes the sim a differential-testing oracle (substrate/differential.h).
#pragma once

#include <memory>

#include "core/runner.h"

namespace dowork::substrate {

// run_do_all's kPool body: the simulator on a supervised RoundPool of
// max(2, hardware threads) workers configured from opts.live.  The pool's
// thread count is measured, not configured; RunOptions::sim_threads does
// not apply.  Fills stats.threads and stats.leaked; a leaked run's storage
// is pinned for the zombie worker.
RunMetrics run_pool(const ProtocolInfo& info, const DoAllConfig& cfg,
                    std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                    RunStats& stats);

}  // namespace dowork::substrate
