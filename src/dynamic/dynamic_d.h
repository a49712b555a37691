// Dynamic-workload extension of Protocol D (paper Sections 1 and 4).
//
// The paper notes: "It is not too hard to modify our last algorithm to deal
// with a more realistic scenario, where work is continually coming in to
// different sites of the system, and is not initially common knowledge"
// (an IBM patent, Dwork-Halpern-Strong, covers such a variant).  This
// module implements that modification: units of work *arrive* at individual
// processes over time; the processes keep alternating work phases with
// agreement phases, and the agreement now gossips two monotone sets -- the
// units KNOWN to exist and the units DONE -- both merged by union (the
// static protocol's outstanding-set intersection is the complement of the
// same lattice).  A process terminates once an agreement establishes that
// (a) every known unit is done and (b) every participant entered the
// agreement past the announced arrival horizon (merged by AND so nobody
// leaves while a peer might still be carrying fresh work).
//
// Semantics of failure: work that arrived at a site that crashes before the
// site's next agreement broadcast is lost with the site, exactly as a real
// job queue on a reclaimed workstation would be; clients must resubmit.
//
// Only the lattice differs from Protocol D: the work slice is D's work_slice
// (protocols/protocol_d.h) over the agreed known \ done, and the views are
// DynBitsets like D's.  The receive-check merges this lattice, so its merge is
// local, but it drops silent processes by D's drop_silent.
#pragma once

#include <map>
#include <memory>

#include "core/work.h"
#include "sim/fault_injector.h"
#include "sim/metrics.h"
#include "sim/process.h"
#include "util/bitset.h"

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

struct DynAgreeMsg final : Payload {
  int phase;
  DynBitset known;    // units known to exist, indexed unit-1
  DynBitset done;     // units performed, indexed unit-1
  DynBitset t_alive;  // processes believed correct
  bool past_horizon;  // AND-merged: every participant entered past the horizon
  bool finished;      // sender has decided this phase's final view
};

class DynamicDProcess final : public IProcess {
 public:
  DynamicDProcess(const DynamicConfig& cfg, int self);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override;
  std::string describe() const override;

 private:
  enum class PhaseKind { kWork, kAgree, kFinished };

  void absorb_arrivals(const Round& now);
  void enter_work_phase(const Round& now);
  Action agree_broadcast(bool finished);
  void finish_agree();

  DynamicConfig cfg_;
  int self_;

  PhaseKind phase_kind_ = PhaseKind::kWork;
  int phase_ = 1;
  DynBitset known_, done_, t_alive_;
  // Slices and phase lengths must be computed from the *agreed* view only:
  // fresh local arrivals are not yet common knowledge and would desynchronize
  // the phase structure (different W at different sites).  They are gossiped
  // in the next agreement and become workable one phase later.
  DynBitset agreed_known_, agreed_done_;
  std::size_t next_arrival_ = 0;  // index into cfg_.arrivals

  std::vector<std::int64_t> my_slice_;
  std::size_t slice_pos_ = 0;
  Round work_end_;
  bool work_entered_ = false;

  DynBitset u_, tn_, kn_, dn_;
  bool agree_past_horizon_ = false;
  int iter_ = 0;
  int grace_ = 0;
  std::map<int, std::shared_ptr<const DynAgreeMsg>> seen_;
  bool terminated_ = false;
};

struct DynamicRunResult {
  RunMetrics metrics;
  // Units that arrived at a site which crashed before propagating them; they
  // are legitimately lost (must be resubmitted by the client).
  std::vector<std::int64_t> lost_units;
  // Every unit that any surviving site learned about was performed.
  bool all_known_work_done = false;
};

DynamicRunResult run_dynamic_do_all(const DynamicConfig& cfg,
                                    std::unique_ptr<FaultInjector> faults);

}  // namespace dowork
