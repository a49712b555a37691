// Protocol D (paper Section 4): the time-optimal algorithm.
//
// Work is spread over all processes believed correct: the protocol
// alternates *work phases* (each process performs its ceil(|S|/|T|)-unit
// slice of the outstanding set S) with *agreement phases*, an early-stopping
// eventual-agreement exchange in which everyone repeatedly broadcasts its
// view (S = outstanding units, T = processes seen alive) until the alive set
// is stable for a round, or a finished peer's view can be adopted.  If more
// than half the processes thought correct at the start of a phase are
// discovered to have failed during it, the protocol reverts to Protocol A on
// whatever work remains (without that escape hatch an adaptive adversary can
// force Omega(n log f / log log f) work, per De Prisco-Mayer-Yung).
//
// Guarantees (Theorem 4.1, case 1): with f failures and no phase losing more
// than half its processes, work <= 2n, messages <= (4f+2)t^2, and everyone
// retires by round (f+1)n/t + 4f + 2.  Failure-free: n/t + 2 rounds and 2t^2
// messages.
//
// Model adaptation (see DESIGN.md): the paper's agreement loop sends and
// receives within one round; our simulator delivers at the next round, so
// the loop is pipelined -- the receive-check for iteration k inspects the
// iteration-k broadcasts, which land one round later.  Later phases allow
// one grace iteration before declaring silent processes faulty, absorbing
// the <=1 round of skew left by done-adoption (the paper's "grace round").
#pragma once

#include <memory>
#include <mutex>
#include <utility>

#include "core/work.h"
#include "protocols/protocol_a.h"
#include "sim/process.h"
#include "util/bitset.h"

namespace dowork {

// Views are word-packed (util/bitset.h): an agreement iteration merges up
// to t of these per recipient, so the packing is what keeps the scale
// sweep's t = 1024 shape affordable.
struct AgreeMsg final : Payload {
  int phase;          // work/agreement phase number, 1-based
  DynBitset s_left;   // outstanding units, indexed unit-1
  DynBitset t_alive;  // processes believed correct
  bool done;
  AgreeMsg(int ph, DynBitset s, DynBitset t, bool d)
      : phase(ph), s_left(std::move(s)), t_alive(std::move(t)), done(d) {}
};

// Run-scoped memoization of the agreement merge.  Every recipient of an
// agreement round folds the SAME collective broadcast set into its views:
// sn &= AND over senders of s_left, tn |= OR of t_alive.  Doing that
// independently costs Theta(t^2) view merges per round -- the dominant
// memory traffic of the D scale rows once the broadcast ledger removed the
// per-pair envelope churn.  The cache folds the round once and shares it:
// O(t) merges to build, two merges per recipient to apply.
//
// One fold serves everyone because a process's own message is idempotent
// in its own view: agree_broadcast sends the sender's current (sn_, tn_),
// and nothing touches either until the next fold, so sn_ &= own.s_left and
// tn_ |= own.t_alive change nothing -- "everyone except me" equals
// "everyone".  The first requester of a round therefore builds the
// sender->message table from its seen-set with its own last broadcast in
// its own slot, and folds all of it.
//
// Why results are bit-identical: AND/OR are associative and commutative,
// so regrouping the fold cannot change a bit, and fold() applies it only
// after checking that the requester's seen-set plus its own message match
// the table pointer for pointer.  Any deviation -- a crash-cut broadcast
// that missed this recipient, an early arrival from a skewed phase
// boundary, a network drop, a different phase -- returns false and the
// caller merges the long way.  Pointer equality means the same message:
// every pointer compared in one round belongs to a payload that was alive
// when the round began, the requesters keep theirs alive through the
// check, and the own message is held by a shared_ptr for exactly that
// reason (a record whose whole audience the network drops frees its
// payload at commit).  The cache is shared by the t sibling processes of
// ONE run and is invisible to every metric, message, and decision;
// protocol_d_test pins cache and cache-free runs to identical metrics.
//
// Threading: the fold is built under one mutex and then only read (a new
// round replaces it, never edits it), so recipients served from any thread,
// in any order, hit the same fast path.  Memory: one table of t pointers
// plus one n-bit and one t-bit fold.
class AgreeMergeCache {
 public:
  // Folds the collective view of `round` into (sn, tn) exactly as the naive
  // loop over `seen` would, given that `own` (the requester's last
  // broadcast, null if it sent none) carries the requester's current
  // (sn, tn); returns false (views untouched) when `seen` plus `own`
  // deviate from the round's table.
  bool fold(int self, const Round& round, int phase, const std::vector<const AgreeMsg*>& seen,
            const AgreeMsg* own, DynBitset& sn, DynBitset& tn);

 private:
  struct Fold {
    Round round;
    int phase = 0;
    std::vector<const AgreeMsg*> msgs;  // by sender; null = silent
    DynBitset sn, tn;                   // AND / OR over every message in msgs
  };

  std::mutex mu_;  // guards current_, which is replaced (never mutated) per round
  std::shared_ptr<const Fold> current_;
};

class ProtocolDProcess final : public IProcess {
 public:
  ProtocolDProcess(const DoAllConfig& cfg, int self,
                   std::shared_ptr<AgreeMergeCache> merge_cache = nullptr);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override;
  std::string describe() const override;

  int phases_completed() const { return phase_ - 1; }
  bool reverted_to_a() const { return phase_kind_ == PhaseKind::kRevertA; }

  // Observability accessor (process.h): units outside the outstanding set S
  // are exactly the ones this process knows done (performed by itself or
  // learned via agreement views).  After a revert, S is frozen at the
  // revert-time value — the embedded Protocol A instance works on virtual
  // ids, so its extra knowledge is not translated back.
  std::int64_t known_done_units() const override {
    return static_cast<std::int64_t>(s_.size() - s_.count());
  }

 private:
  enum class PhaseKind { kWork, kAgree, kRevertA, kFinished };

  void enter_work_phase(const Round& now);
  void enter_agree_phase(const Round& now);
  Action agree_broadcast(bool done);
  void finish_agree(const Round& now);

  std::int64_t n_;
  int t_;
  int self_;

  PhaseKind phase_kind_ = PhaseKind::kWork;
  int phase_ = 1;
  DynBitset s_;  // outstanding units (unit u -> s_[u-1])
  DynBitset t_alive_;

  // Work-phase state.
  std::vector<std::int64_t> my_slice_;
  std::size_t slice_pos_ = 0;
  Round work_end_;  // round at which the agreement phase starts
  bool work_entered_ = false;

  // Agreement-phase state (pipelined; see header comment).
  DynBitset u_;   // not yet known faulty this phase
  DynBitset tn_;  // T being accumulated
  DynBitset sn_;  // S being intersected
  // The broadcast audience (u_ minus self) as the shared immutable set the
  // ledger records alias (sim/message.h).  Rebuilt lazily whenever u_
  // changes; between changes -- every iteration of a stable agreement --
  // consecutive broadcasts share one object, so a full agreement phase
  // allocates O(changes) audience sets, not O(iterations).
  std::shared_ptr<const RecipientBits> audience_;
  int iter_ = 0;
  int grace_ = 0;
  bool done_ = false;
  // This phase's broadcasts, indexed by sender (null = silent); a flat
  // array instead of a map keeps the per-iteration bookkeeping O(t) with no
  // node allocation.  Raw pointers: during an agreement round the inbox owns
  // the payloads for the whole on_round call and seen_ is consumed and
  // cleared before returning; only messages that arrive *early* -- while we
  // are still in the work phase -- outlive their inbox, and those are kept
  // alive by early_retained_ (refcount churn per message was measurable at
  // t = 1024, where an iteration stashes ~t messages).
  std::vector<const AgreeMsg*> seen_;
  std::vector<std::shared_ptr<const Payload>> early_retained_;
  // This agreement phase's latest broadcast (null before the first and
  // after a round that sent none), the own slot of the shared fold.  Owned,
  // not raw: the network may drop the whole audience and free the record.
  std::shared_ptr<const AgreeMsg> last_sent_;
  std::shared_ptr<AgreeMergeCache> merge_cache_;  // run-shared; null = merge manually

  // Revert path.  The paper's case-2 bounds assume Protocol A runs over the
  // surviving processes only, so the embedded instance uses rank-in-T ids;
  // the wrapper translates between ranks and real process ids on the wire.
  std::unique_ptr<ProtocolAProcess> revert_;
  std::vector<int> rank_to_id_;
  std::vector<int> id_to_rank_;  // -1 for processes outside the agreed T
  bool terminated_ = false;
};

}  // namespace dowork
