// One-call run harness: instantiate a protocol, execute it under a fault
// injector, verify the outcome, and return the metrics.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/registry.h"
#include "core/verifier.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"

namespace dowork {

struct RunResult {
  RunMetrics metrics;
  std::string violation;  // empty = verified OK
  bool ok() const { return violation.empty(); }
};

struct RunOptions {
  std::uint64_t max_stepped_rounds = 50'000'000;
  // Override the protocol's declared strictness (e.g. the Byzantine layer
  // legitimately pairs work with a value send).
  bool enforce_strict = true;
  // Scenario hook: tunable protocol parameter, forwarded to the registry's
  // make_proc_param factory (e.g. baseline_checkpoint's units-per-checkpoint).
  std::optional<std::int64_t> protocol_param;
  // Network weather, forwarded to Simulator::Options verbatim (the default
  // no-op spec keeps the run bit-for-bit crash-only).
  NetSpec net;
  // Round-parallel evaluation: shard each round's step list over this many
  // threads (RoundPool).  1 = the classic serial loop; any value yields
  // byte-identical results (see round_pool.h), so this is purely a
  // wall-clock knob for big single runs.
  int sim_threads = 1;
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
