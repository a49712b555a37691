// Read-only window onto committed simulator state, for adaptive adversaries.
//
// The paper's bounds are worst cases over an *adaptive* adversary: one that
// watches the execution and chooses crashes online.  SimObservable is the
// exact window such an adversary is allowed to watch through — it is handed
// to the fault injector via FaultInjector::attach() and stays valid for the
// whole run (src/adversary/ builds its strategies on top of it).
//
// ## What is observable, and why nothing more
//
// Four accessors, exactly what the strategies in src/adversary/ read: the
// run's shape (num_procs, num_units), which processes are still active
// (is_active: retirements that already happened), and each process's own
// progress view (announced_progress, which can count a unit the process is
// mid-performing; process.h has the exact contract).  Round numbers reach
// the adversary through on_round_start and inspect, and the crash tally
// through inspect's SimSnapshot (sim/fault_injector.h).  The adversary
// never sees a protocol's private intentions beyond the Action it is
// already handed at the existing inspect() decision point — which is
// faithful to the model (the adversary controls the network and the crash
// schedule, so everything here is information it could reconstruct from
// the wire anyway) and is what keeps the harness determinism contract
// intact: a run is a pure function of (scenario, seed), strategies draw
// randomness only from scenario seeds, and no accessor exposes cross-run or
// cross-thread state (each run owns its simulator and injector; parallelism
// exists only across runs).
#pragma once

#include <cstdint>

namespace dowork {

class SimObservable {
 public:
  virtual ~SimObservable() = default;

  // Shape: process count and (when the run tracks them) distinct work units.
  virtual int num_procs() const = 0;
  virtual std::int64_t num_units() const = 0;

  // Liveness.  "Active" means neither crashed nor voluntarily terminated.
  virtual bool is_active(int proc) const = 0;

  // The protocol-level observability accessor (IProcess::known_done_units):
  // how many units `proc` believes done — wire-derived knowledge plus the
  // process's own in-progress bookkeeping, which may run ahead of the
  // committed work for units `proc` is mid-performing.  See process.h for
  // the exact contract and the per-protocol caveats.
  virtual std::int64_t announced_progress(int proc) const = 0;
};

}  // namespace dowork
