// The simulator as differential-testing oracle: run the identical
// (protocol, shape, FaultSpec, seed) case on the simulator and on a live
// backend and compare.
//
// Two modes, matching the two live schedules:
//
//   * Deterministic schedule -- the live backend commits in ascending
//     process id, reproducing the simulator's serial interleaving, so EVERY
//     deterministic RunMetrics field must match the sim run field for field
//     (compare_metrics reports the first divergence).  A mismatch is a bug
//     in one of the backends, never acceptable noise.
//   * Free schedule -- commits land in completion order, the OS scheduler
//     is a real adversary, and metric equality is not expected; callers
//     assert only the paper bounds (src/harness/bounds.h) and the verifier.
//
// run_differential drives the deterministic mode end to end; the harness's
// `differential` experiment family is built on it.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/runner.h"

namespace dowork::substrate {

// Field-for-field comparison of two runs' deterministic metrics, the kill
// census included.  Returns "" when equal, else a human-readable
// first-divergence description ("messages_total: sim=96 live=94").
// RunStats (wall clock, threads) is backend-specific and never compared.
std::string compare_metrics(const RunMetrics& sim, const RunMetrics& live);

struct DiffResult {
  RunResult sim;   // the oracle leg
  RunResult live;  // the live leg (pool or socket)
  std::string divergence;  // "" = metric-for-metric equal and both legs verified
  bool ok() const { return divergence.empty(); }
};

// Runs the case on the simulator, then on the live backend opts.backend
// names (kPool or kSocket; kSim throws std::invalid_argument) under the
// deterministic schedule, and checks: sim leg verifies, live leg verifies,
// metrics equal.  The injector factory is called once per leg and must
// produce independent injectors with identical deterministic behavior
// (every FaultSpec::make satisfies this -- specs are pure descriptions and
// adaptive strategies derive their choices from seed + observed state,
// which the deterministic schedule makes identical across legs).
using InjectorFactory = std::function<std::unique_ptr<FaultInjector>()>;

DiffResult run_differential(const ProtocolInfo& info, const DoAllConfig& cfg,
                            const InjectorFactory& make_injector, const RunOptions& opts);
DiffResult run_differential(const std::string& protocol, const DoAllConfig& cfg,
                            const InjectorFactory& make_injector, const RunOptions& opts);

}  // namespace dowork::substrate
