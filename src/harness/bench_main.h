// The `dowork_bench` CLI driver: parse flags, expand experiments to
// scenarios, fan out on the ParallelScenarioRunner, print paper-style
// tables, optionally write the deterministic JSON report.
#pragma once

#include <string>

#include "harness/scenario.h"

namespace dowork::harness {

struct BenchOptions {
  // Experiment names to run: one name, a comma-separated list, or "all".
  std::string experiment;
  int jobs = 0;           // 0 = hardware concurrency
  std::string json_path;  // empty = no JSON output
  std::string filter;     // substring over scenario ids; empty = keep all
  bool list_only = false;
  bool quiet = false;   // suppress tables (JSON/e2e timing only)
  bool timing = false;  // include the machine-dependent "timing" JSON key
  // --backend socket: execute every sync scenario on worker OS processes
  // over Unix-domain sockets (deterministic schedule) instead of the
  // simulator.  The deterministic report is byte-identical on either
  // backend by the oracle contract -- CI diffs the JSONs -- and --timing
  // additionally carries units_per_sec.  Sets Scenario::backend on every
  // kSync scenario; kLive and kDifferential rows keep their own backend.
  Backend backend = Backend::kSim;
  // --sim-threads N: round-parallel evaluation inside each simulator run
  // (RoundPool).  Orthogonal to --jobs (scenarios x threads-within-a-run);
  // byte-identical reports at any value, by the ordered-commit contract.
  // Rejected with --backend socket, which runs no simulator.
  int sim_threads = 1;
};

// Parses argv (flags: --experiment NAME[,NAME...], --jobs N, --json PATH,
// --filter SUBSTR, --backend sim|socket, --sim-threads N, --timing, --list,
// --quiet, --help).  Socket-substrate
// worker re-executions (substrate::maybe_socket_worker) are intercepted
// before flag parsing, so the bench binary can serve as its own worker
// image.  Returns the process exit code.
int bench_main(int argc, char** argv);

}  // namespace dowork::harness
