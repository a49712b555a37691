// Protocol registry: maps protocol names to process factories plus the
// invariants the verifier should enforce for them.  Used by the test
// parameter sweeps, the benchmark harness and the examples.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/work.h"
#include "sim/metrics.h"
#include "sim/process.h"

namespace dowork {

struct ProtocolInfo {
  std::string name;
  // At most one process performs work in any round (Protocols A/B/C and the
  // single-worker baselines; false for Protocol D and baseline_all).
  bool sequential = false;
  // Obeys the paper's one-operation-per-round accounting (enforced by the
  // simulator's strict mode).
  bool strict_one_op = false;
  std::function<std::unique_ptr<IProcess>(const DoAllConfig&, int self)> make_proc;
  // Scenario hook: protocols whose construction takes a tunable integer
  // (e.g. baseline_checkpoint's units-per-checkpoint).  Null for the rest;
  // the harness sweeps the parameter via RunOptions::protocol_param.
  std::function<std::unique_ptr<IProcess>(const DoAllConfig&, int self, std::int64_t param)>
      make_proc_param;
  // Whole-run factory for protocols whose processes share run-scoped state
  // (Protocol D's agreement merge cache -- a pure memoization shared by the
  // t sibling processes of ONE run, never across runs, and safe to serve
  // from any thread).  When set, make_processes uses this instead of t
  // make_proc calls; make_process (one process alone) never does.
  std::function<std::vector<std::unique_ptr<IProcess>>(const DoAllConfig&)> make_procs;
  // Replaces verify_run's every-unit rule for run-scoped protocols with
  // another goal (run_byzantine, run_dynamic_do_all): "" or the violation.
  std::function<std::string(const RunMetrics&)> check_outcome;
};

// All registered protocols (baselines, A, B, C, C_batch, naive_C, D, D_coord).
const std::vector<ProtocolInfo>& all_protocols();

// Lookup by name; throws std::invalid_argument for unknown names.
const ProtocolInfo& find_protocol(const std::string& name);

// Instantiate process `self` of a run.  `param` selects the parameterized
// factory (make_proc_param) when set; protocols without one reject a param
// loudly rather than silently ignoring it.  A socket worker builds its one
// process through here: run-shared state (make_procs) has no siblings to
// serve in a worker's address space.
std::unique_ptr<IProcess> make_process(const ProtocolInfo& info, const DoAllConfig& cfg, int self,
                                       std::optional<std::int64_t> param);

// Instantiate the full process vector for a run: make_procs when set and
// no param is given, else make_process for each self.  The simulator and
// the round pool build through here, so run-shared state is the same on
// both.
std::vector<std::unique_ptr<IProcess>> make_processes(const ProtocolInfo& info,
                                                      const DoAllConfig& cfg);
std::vector<std::unique_ptr<IProcess>> make_processes(const ProtocolInfo& info,
                                                      const DoAllConfig& cfg,
                                                      std::optional<std::int64_t> param);

}  // namespace dowork
