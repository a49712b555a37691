// Dynamic-workload extension of Protocol D (paper Sections 1 and 4).
//
// The paper notes: "It is not too hard to modify our last algorithm to deal
// with a more realistic scenario, where work is continually coming in to
// different sites of the system, and is not initially common knowledge"
// (an IBM patent, Dwork-Halpern-Strong, covers such a variant).  This
// module implements that modification: units of work *arrive* at individual
// processes over time; the processes keep alternating work phases with
// agreement phases, and the agreement now also gossips the units KNOWN to
// exist, merged by union, beside D's S ("not yet done", merged by
// intersection) and T.  A process terminates once an agreement establishes
// that (a) every known unit is done and (b) every participant entered the
// agreement past the announced arrival horizon (merged by AND so nobody
// leaves while a peer might still be carrying fresh work).
//
// Semantics of failure: work that arrived at a site that crashes before the
// site's next agreement broadcast is lost with the site, exactly as a real
// job queue on a reclaimed workstation would be; clients must resubmit.
//
// Only the lattice differs from Protocol D, and the lattice is D's own
// AgreeView with a known set (protocols/protocol_d.h): a process runs D's
// DPhaseLoop -- the work slice over the agreed S and known, the broadcast
// agreement and its one receive, agree_receive.  What is written here is
// arrival absorption (the local known set, contributed when an agreement
// starts) and the phase-end rule, which never reverts to Protocol A.
// run_dynamic_do_all runs it through run_do_all, off the socket backend.
#pragma once

#include <memory>

#include "core/runner.h"
#include "protocols/protocol_d.h"
#include "sim/fault_injector.h"

namespace dowork {

// Work arriving at one site at one round.  Rounds must fit u64 here (the
// dynamic protocol has no exponential deadlines).
struct Arrival {
  std::uint64_t round;
  int proc;
  std::vector<std::int64_t> units;  // 1-based ids, unique across the schedule
};

struct DynamicConfig {
  int t = 0;
  std::int64_t max_units = 0;     // upper bound on unit ids
  std::uint64_t horizon = 0;      // no arrivals at or after this round (common knowledge)
  std::vector<Arrival> arrivals;  // shared, sorted by round

  void validate() const;
};

class DynamicDProcess final : public IProcess {
 public:
  // `cfg` is the run's one schedule, validated by the caller.
  DynamicDProcess(std::shared_ptr<const DynamicConfig> cfg, int self);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override { return loop_.next_wake(now); }
  std::string describe() const override;
  std::int64_t known_done_units() const override { return loop_.known_done_units(); }

 private:
  std::shared_ptr<const DynamicConfig> cfg_;
  DPhaseLoop loop_;
  // Units that arrived here.  Slices and phase lengths come from the
  // *agreed* view only: fresh arrivals are not yet common knowledge and
  // would desynchronize the phase structure (different W at different
  // sites), so they are contributed at the next agreement's start and
  // become workable one phase later.
  DynBitset arrived_;
  std::size_t next_arrival_ = 0;  // index into cfg_->arrivals
  // This phase's views by sender (null = silent); held_ keeps them alive,
  // since views of this phase can arrive while this process still works.
  std::vector<const AgreeMsg*> seen_;
  std::vector<std::shared_ptr<const Payload>> held_;
};

struct DynamicRunResult : RunResult {
  // Units that arrived at a site which crashed before propagating them; they
  // are legitimately lost (must be resubmitted by the client).
  std::vector<std::int64_t> lost_units;
  // Every unit that any surviving site learned about was performed.
  bool all_known_work_done = false;
};

DynamicRunResult run_dynamic_do_all(const DynamicConfig& cfg,
                                    std::unique_ptr<FaultInjector> faults,
                                    const RunOptions& opts = {});

}  // namespace dowork
