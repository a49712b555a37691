// Post-run verification of the Do-All guarantees.
#pragma once

#include <string>

#include "core/registry.h"
#include "sim/metrics.h"

namespace dowork {

// Returns an empty string when the run satisfies the problem's requirements
// (and the protocol's declared invariants), otherwise a description of the
// first violation:
//   * the run must end with every process retired (no deadlock, no cap),
//   * every unit 1..n must have been performed, or check_outcome must pass,
//   * sequential protocols must never have two workers in one round --
//     unless the network interfered with delivery (metrics.net_*), which
//     voids the reliable-delivery premise that invariant rests on.
std::string verify_run(const ProtocolInfo& info, const DoAllConfig& cfg,
                       const RunMetrics& metrics);

}  // namespace dowork
