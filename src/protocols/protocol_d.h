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
//
// The phase core below (work_slice, the AgreeFold receive -- fold_views,
// stash_views, drop_silent, agree_receive -- end_phase and RevertToA) and
// DPhaseLoop, the process shell built on it (the work phase, the broadcast
// agreement and the phase end), are shared by D, the coordinator variant
// and the dynamic-workload extension.  The agreed view is one lattice for
// all three: static D's S is dynamic D's "not yet done" with the known set
// fixed to every unit (AgreeView).  What stays in ProtocolDProcess is how a
// receive gets its fold: from the merge cache's ledger index (served) or
// from its own inbox (walked).
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "core/work.h"
#include "protocols/protocol_a.h"
#include "sim/process.h"
#include "util/bitset.h"

namespace dowork {

// Views are word-packed (util/bitset.h): an agreement iteration merges up
// to t of these per recipient, so the packing is what keeps the scale
// sweep's t = 1024 shape affordable.
//
// An S view: the immutable shared `base` with the positions [lo, hi)
// cleared.  Figure 4 line 8's S \ S' is one when every member of S inside
// [first unit - 1, last unit) belongs to the slice: the view is then the
// phase's shared S plus that range instead of a private n-bit copy.  Static
// D's slice is a block of consecutive ranks in S, so it always is; dynamic
// D's slice is a block of S and its known set, and S may hold unknown units
// between them (see DPhaseLoop::work_round).  Outside iteration 0 the range
// is empty.
struct SView {
  SharedBits base;
  std::size_t lo = 0, hi = 0;

  SView() = default;
  SView(SharedBits b) : base(std::move(b)) {}  // implicit: the uncut view of b
  SView(SharedBits b, std::size_t l, std::size_t h) : base(std::move(b)), lo(l), hi(h) {}

  bool cut() const { return lo < hi; }
  std::size_t size() const { return base->size(); }
  std::uint64_t count() const { return base->count() - base->count_range(lo, hi); }
  // The view's bits as one bitset.
  DynBitset flat() const {
    DynBitset b = *base;
    b.reset_range(lo, hi);
    return b;
  }
  // The same view with an empty range: base itself when nothing is cut.
  SView flattened() const { return cut() ? SView(share_bits(flat())) : *this; }
};

// Ownership: the views are immutable and shared.  A broadcast aliases the
// sender's current (sn, tn) instead of copying n + t bits, and a process
// whose merge leaves a view unchanged -- or equal to the fold it merged --
// keeps aliasing that object (AgreeFold::merge_into).  No view is copied on
// write in iteration 0: work_round's S \ S' records its cut on the
// shared S, so a phase's iteration-0 views are t cuts of one base, and
// iteration 0's T = {self} is carried as a null t_alive, no bitset at all.
// A view is copied only by a merge that yields new bits, and flattened or
// materialised only when a process ends its agreement having heard no
// view.  The agreement's other per-process sets follow the same rule:
// u starts as an alias of the agreed T and, when the silence rule drops
// members, adopts the fold's heard set whenever that is the result
// (drop_silent); the broadcast audience is u itself with the sender
// excluded (sim/message.h's RecipientSet).  Theorem 4.1's agreement
// property is then also a memory property: survivors that agree hold one
// (S, T), and a served round leaves them on one u, so a D process holds no
// t-bit set of its own on the served path.
//
// One agreement view: S merged by AND, T and the known set by OR, and the
// horizon flag by AND.  Static D's known set is every unit (null), so its
// outstanding set is S; the dynamic extension's is S and known, where
// known grows as arrivals are gossiped and S is "not yet done" over every
// unit id.
struct AgreeView {
  SView s_left;  // units not yet done, indexed unit-1
  // Processes believed correct; null = only the view's owner (the sender
  // of a message, self in a held view) -- iteration 0's T = {self}.
  SharedBits t_alive;
  SharedBits known;          // units known to exist; null = every unit
  bool past_horizon = true;  // every contributor entered past the arrival horizon
};

struct AgreeMsg final : Payload, AgreeView {
  bool done;
  int phase;  // work/agreement phase number, 1-based
  AgreeMsg(int ph, SView s, SharedBits t, bool d, SharedBits k = nullptr, bool past = true)
      : AgreeView{std::move(s), std::move(t), std::move(k), past}, done(d), phase(ph) {}
};

// --- The phase core shared by D, D_coord and dynamic D --------------------

// Figure 4 line 5: among the outstanding units (unit u -> bit u-1) in
// increasing order, cut into blocks of w = ceil(|S|/|T|) (|T| at least 1),
// the block whose index is self's rank in `alive`; empty when self is not in
// `alive`.  Writes the block's unit ids into `slice` and returns w.  The
// block is located by rank directly in the bitset (select + find_next)
// instead of materializing all |S| outstanding units: every process
// re-derives the partition each phase, which made the O(n) flattening the
// second-largest cost of the t = 1024 scale row.
std::int64_t work_slice(const DynBitset& outstanding, const DynBitset& alive, int self,
                        std::vector<std::int64_t>& slice);

// The one fold of an agreement phase's views (paper Section 4): the AND of
// S, the OR of T and of known, the AND of the horizon flags and the senders
// heard over every view -- done views included -- plus the lowest sender's
// done view.  `sn`/`tn`/`kn` are built once per fold, flat; `sn` and `tn`
// are null when no view was folded, and then merge_into changes nothing.
// A view with an implicit T contributes its sender's bit to `tn`.  `kn` is
// null when some view knows every unit.  `heard` is shared so that the
// silence rule can hand it to every process it leaves with that set.
struct AgreeFold {
  SharedBits sn, tn, kn;
  bool past_horizon = true;
  SharedBits heard;                // senders whose slot holds a view
  const AgreeMsg* done = nullptr;  // lowest sender's done view; null = none
  // True when every merger that is in `heard` merges its own held view:
  // its slot holds its latest broadcast, which aliases that view.  The
  // merge cache's index sets it (Index::serves checks the slot); a walked
  // fold, D_coord's and dynamic D's never do, since a process does not
  // hear its own broadcast.
  bool holds_own_view = false;

  // held.s_left &= sn, held.t_alive |= tn, held.known |= kn, sharing by
  // content: when a result equals the fold's set the holder takes the
  // fold's object, when it equals the held set the holder keeps its own,
  // and only otherwise is the AND/OR allocated.  A merger whose own view
  // is folded in (holds_own_view, self in heard: a served receive) takes
  // the fold's objects without looking at a bit: the AND of views that
  // include its own is within its S, and the ORs hold its T and known set.
  // Every served recipient merges the same fold, so a served round leaves
  // its survivors on one S and one T object.  Any other merger decides by
  // scanning: a cut held S is asked first in its cut form (sn within base,
  // and missing the range), so the common iteration-0 merge adopts the fold
  // without flattening; only otherwise is it flattened before the rule
  // above.  A held implicit T is {self}: the fold's T is adopted when it
  // holds self, and only otherwise copied with self added.
  void merge_into(AgreeView& held, int self) const;
};

// The fold of `by_sender`, a phase's views indexed by sender (null = silent).
// The AND of cut views is (AND of the bases) \ (union of the ranges): each
// base is ANDed once -- a base equal to the previous view's is skipped --
// and the ranges are cleared after, so iteration 0's t cuts of one shared S
// fold into one n-bit copy instead of t ANDs.
AgreeFold fold_views(const std::vector<const AgreeMsg*>& by_sender);

// Stashes every view of `phase` in `inbox` into by_sender[from] (a later
// record from the same sender replaces an earlier one); when `retained` is
// non-null, also keeps each stashed payload alive there.
void stash_views(const InboxView& inbox, int phase, std::vector<const AgreeMsg*>& by_sender,
                 std::vector<std::shared_ptr<const Payload>>* retained);

// The silence rule: drops from u every member other than self that is not
// in `heard` (silent => crashed); returns whether any was dropped.  By
// content, like merge_into: u takes the `heard` object when that is the
// result (heard within u, and holding self if u does -- a served receive),
// keeps its own when nothing is dropped, and is allocated only otherwise.
bool drop_silent(SharedBits& u, const SharedBits& heard, int self);

// One iteration of the agreement receive-check (Figure 4 lines 15-19) over
// the fold of the phase's views: adopt the fold's done view into `held` and
// return true; otherwise merge the fold in and, once past_grace,
// drop_silent from u, setting removed_any.  The one seam at which D's
// survivors decide the (S, T) they agree on: a walked receive passes the
// fold of its own inbox, a served one the ledger index's fold (see
// AgreeMergeCache); D_coord's fallback and dynamic D pass the fold of their
// stash.
bool agree_receive(const AgreeFold& fold, int self, bool past_grace, AgreeView& held,
                   SharedBits& u, bool& removed_any);

// Figure 4 lines 11-13's escape hatch: Protocol A on the leftover units.
// The paper's case-2 bounds assume it runs over the agreed survivors only, so
// the embedded instance uses rank-in-T ids (its deadlines scale with |T|:
// Theorem 4.1 case 2 applies Theorem 2.3 with t/2 processes); on_round
// translates between ranks and real process ids in both directions.
class RevertToA {
 public:
  // Protocol A over the agreed (s, alive) -- self must be in alive --
  // starting at round `start`.
  RevertToA(const DynBitset& s, const DynBitset& alive, int self, const Round& start);

  Action on_round(const RoundContext& ctx, const InboxView& inbox);
  Round next_wake(const Round& now) const { return a_->next_wake(now); }

 private:
  int rank_ = -1;  // self's id in the embedded A
  std::vector<int> rank_to_id_;
  std::vector<int> id_to_rank_;  // -1 for processes outside the agreed T
  std::unique_ptr<ProtocolAProcess> a_;
};

// The decision at the end of an agreement phase that agreed on (s, alive),
// where old_alive processes were believed correct when it began (Figure 4
// lines 9-13): terminate when s is empty or self is outside alive; else
// revert to Protocol A from round now + 1 when more than half were lost
// (old_alive > 2 max(1, |alive|)); else start the next work phase.  The one
// seam where D and D_coord decide "revert exactly when a phase lost more
// than half".
struct PhaseEnd {
  enum class Kind { kNextPhase, kTerminate, kRevert } kind;
  std::unique_ptr<RevertToA> revert;  // set for kRevert only
};
PhaseEnd end_phase(std::uint64_t old_alive, const DynBitset& s, const DynBitset& alive, int self,
                   const Round& now);

// One Protocol D process's phase loop (Figure 4), shared by D, D_coord and
// dynamic D: the agreed (S, T, known), the work phase, the broadcast
// agreement and the phase end.  The owning process calls it from on_round
// in this shape:
//
//   retired()   -> retired_round(): the terminate action, or the embedded
//                  Protocol A's round once reverted;
//   !agreeing() -> work_round(): the slice's next unit, entering the phase
//                  on its first round; nullopt at work_end, where the
//                  process calls start_agree();
//   agreeing()  -> receive(fold, grace) over its fold of the phase's views,
//                  then broadcast(done) to u \ {self}, and finish_phase()
//                  once the agreement is over.
//
// D and dynamic D run the agreement every round, at grace 0 in phase 1 and
// 1 after; dynamic D contributes its arrivals at start_agree and ends its
// phases by its own rule (close_agreement, then end).  D_coord runs its own
// coordinator rounds on the same view -- merge(), adopt(), and the final
// and re-broadcast views sent to u \ {self}, which is T \ {self} then --
// and the loop's agreement, at grace 2, only as its fallback.  So ROADMAP
// item 4's two per-process checks each have one site: the (S, T) a
// survivor agrees on is decided in receive(), and "revert exactly when more
// than half were lost" in finish_phase().
class DPhaseLoop {
 public:
  // `all_units` (n bits, all set) and `all_procs` (t bits, all set) are the
  // starting (S, T); null builds a private pair.  `known` is the starting
  // known set; null = every unit, fixed (static D).
  DPhaseLoop(const DoAllConfig& cfg, int self, SharedBits all_units = nullptr,
             SharedBits all_procs = nullptr, SharedBits known = nullptr);

  bool terminated() const { return terminated_; }
  bool reverted() const { return revert_ != nullptr; }
  bool retired() const { return terminated_ || revert_; }
  // A retired process's round: the terminate action, or the embedded A's.
  Action retired_round(const RoundContext& ctx, const InboxView& inbox);

  // A work-phase round.  The first one enters the phase: the slice
  // (work_slice over the outstanding S and known), work_end = now +
  // max(1, ceil(|outstanding|/|T|)) so everyone's agreement starts aligned
  // (line 7), and line 8's S := S \ S' -- if we live to broadcast, the
  // slice was performed -- as a cut of the shared S when the slice's range
  // holds nothing else (see SView), else as a copy without the slice.  A
  // phase lasts at least one round so that an idle dynamic system keeps
  // gossiping arrivals; static D never has an empty S here.  Each round
  // before work_end performs the slice's next unit, if any; at work_end the
  // result is nullopt.
  std::optional<Action> work_round(const Round& now);

  // Starts the agreement: u = T (an alias), the view's S = S, T = {self}
  // (implicit: a null t_alive), known = known plus `arrived` (units this
  // process learned of outside any agreement; null = none, and then known
  // may be null), past_horizon as given; iteration 0.
  void start_agree(bool past_horizon = true, const DynBitset* arrived = nullptr);
  // Sends the view and `done` to u \ {self}.  The audience is u itself
  // with self excluded (sim/message.h), so the ledger records alias u's
  // object and survivors on one u share one audience.  No message is built
  // when the audience is empty.  A done view always carries its T: an
  // implicit {self} is materialised first, since adopters take the view
  // whole.
  Action broadcast(bool done);
  // The receive-check of the agreement's current iteration over `fold`
  // (agree_receive; silent members are dropped from iteration `grace` on).
  // True when the agreement is over: a done view was adopted, or an
  // iteration past grace dropped no one.
  bool receive(const AgreeFold& fold, int grace);
  // D_coord's coordinator rounds: merge a fold of reports into the view,
  // or adopt a final view whole.
  void merge(const AgreeFold& fold) { fold.merge_into(view_, self_); }
  void adopt(const AgreeView& view) { view_ = view; }
  // The phase end (Figure 4 lines 9-13): close_agreement, then end_phase
  // decides the next phase, termination or the revert to A.
  void finish_phase(const Round& now);
  // finish_phase's halves, for a variant with its own phase-end rule:
  // (S, T, known) := the agreed view, leaving the agreement (the next
  // work_round enters a fresh work phase; T = {self} is materialised only
  // for a process that heard no view), then the decision.
  void close_agreement();
  void end(PhaseEnd e);

  // The wake of a working or retired process (monotone, process.h); now
  // while agreeing.
  Round next_wake(const Round& now) const;

  int self() const { return self_; }
  int phase() const { return phase_; }  // 1-based
  bool agreeing() const { return agreeing_; }
  // The agreed views, shared and immutable (see AgreeMsg): after an
  // agreement phase every survivor that agreed aliases the same objects.
  // s() is uncut between phases and cut by this process's slice during one.
  const SView& s() const { return s_; }
  const SharedBits& t() const { return t_; }
  const SharedBits& known() const { return k_; }  // null = every unit
  // Not yet known faulty this phase; shared like the views.
  const SharedBits& u() const { return u_; }
  // The agreement's view: the agreed one once the agreement is closed.
  const AgreeView& view() const { return view_; }
  // Units outside S: performed by this process or learned done through an
  // agreement (process.h's observability accessor).
  std::int64_t known_done_units() const {
    return static_cast<std::int64_t>(s_.size() - s_.count());
  }
  // This agreement's latest broadcast (null before the first, after a round
  // that sent none, and after the phase end).  Owned, not raw: the merge
  // cache's pointer comparison (Index::serves) must not be fooled by a
  // freed record (the network may drop the whole audience).
  const AgreeMsg* last_sent() const { return last_sent_.get(); }

 private:
  int self_;
  int phase_ = 1;
  SView s_;  // units not yet done (unit u -> bit u-1)
  SharedBits t_;
  SharedBits k_;  // known units; null = every unit

  // Work phase.
  std::vector<std::int64_t> slice_;
  std::size_t cursor_ = 0;
  Round work_end_;  // the round the agreement starts
  bool work_entered_ = false;
  bool terminated_ = false;

  // Agreement (pipelined; see the header comment).
  bool agreeing_ = false;
  int iter_ = 0;
  SharedBits u_;           // not yet known faulty this phase
  AgreeView view_;         // the view being merged; each broadcast aliases its sets
  RecipientSet audience_;  // u_ \ {self}; stale when it holds another object than u_
  std::shared_ptr<const AgreeMsg> last_sent_;

  std::unique_ptr<RevertToA> revert_;  // set once reverted

  // A fresh T = {self}, for a view whose implicit T must become explicit.
  SharedBits only_self() const;
};

// Run-scoped memoization of an agreement round's receive.  Every recipient
// of an agreement round reads the SAME broadcast ledger: walked one by one,
// that is Theta(t) inbox entries and view merges per recipient, Theta(t^2)
// per round -- the dominant cost of the D scale rows.  The round's first
// requester instead indexes the ledger once (O(records) under one mutex)
// into an immutable Index, and every recipient whose receive the index
// provably reproduces skips its walk and runs agree_receive on the index's
// fold instead of on the fold of its own stash.
//
// One fold serves everyone because a process's own message is idempotent
// in its own view: DPhaseLoop::broadcast sends the sender's current view,
// and nothing touches it until the next receive, so merging own back in
// changes nothing -- "everyone except me" equals "everyone", provided the
// ledger's record from me carries exactly my last_sent() (Index::serves
// compares the pointers).  The same fact spares the merge itself: the
// fold's S is then within my S and its T and known set hold mine, so a
// served recipient adopts the fold's objects without a scan
// (AgreeFold::holds_own_view), and the per-survivor cost of a served
// receive no longer grows with n.
//
// The model boundary: a recipient only uses records its own delivery
// predicate admits.  The index therefore marks a recipient *eligible* when
// every agreement record from another sender delivers_to it -- so crash
// prefix cuts and audiences rewritten by the network count -- and no record
// delivers to its own sender.  For an eligible recipient whose phase is the
// single phase of every agreement record, the walk would stash exactly
// the index's sender table minus its own slot, so AND/OR regrouping (both
// associative and commutative) gives the same bits, and the heard set
// differs only in the own slot, which drop_silent never drops.  Everything
// else walks as before: cut-out or dropped recipients, mixed-phase ledgers,
// two records from one sender, early arrivals already stashed, an own
// message missing from the ledger, and processes built without a cache (a
// socket worker's one process among them).  protocol_d_test pins
// cache and cache-free runs to identical metrics, and pins that a
// crash-free run serves every agreement receive.
//
// Keying: an index is identified by (round, record vector address).  That
// is sound because, within one round, the record vector cache-sharing
// processes read is the simulator's ledger, never refilled or replaced at
// the same address.  The wrappers that build their own records
// (revert-to-A, the Byzantine layer) wrap only A, B and C, which build no
// index.
//
// Threading: the index is built under one mutex and then only read (a new
// round replaces it, never edits it), so recipients served from any thread,
// in any order, take the same path.  It holds raw pointers into the ledger,
// dereferenced only during its own round.  Memory: one table of t pointers,
// two t-bit sets and one n-bit and one t-bit fold -- and the fold's views
// and heard set are the objects served recipients adopt
// (AgreeFold::merge_into, drop_silent), so a served round's survivors hold
// one S, one T and one u between them instead of a copy each.  Those
// objects are sealed with their popcounts (share_bits), so the |S|, |T|
// and |u| every survivor asks of them afterwards are reads.
class AgreeMergeCache {
 public:
  struct Index {
    Round round;
    const std::vector<DeliveryRecord>* records = nullptr;
    // Range of the agreement records' phases; lo > hi when there are none.
    int phase_lo = std::numeric_limits<int>::max();
    int phase_hi = std::numeric_limits<int>::min();
    bool one_per_sender = true;
    std::vector<const AgreeMsg*> msgs;  // by sender (the last record's); null = silent
    // The rest is filled only when foldable(): one phase, one record per
    // sender.
    DynBitset eligible;  // see the class comment
    AgreeFold fold;      // fold_views(msgs)

    // True when some agreement record carries `phase`; a work-phase
    // process stashes nothing otherwise.
    bool carries(int phase) const { return phase_lo <= phase && phase <= phase_hi; }
    bool foldable() const { return phase_lo == phase_hi && one_per_sender; }
    // True when the agreement receive of `self` in `phase`, whose latest
    // broadcast is `own` (null if none) and who has stashed no early
    // arrivals, may be served from the index instead of walking.  Its own
    // slot is then never the fold's done adoptee: own is not a done message
    // (finish_phase drops it), and the check keeps that explicit.
    bool serves(int self, int phase, const AgreeMsg* own) const {
      return foldable() && phase_lo == phase && eligible.test(static_cast<std::size_t>(self)) &&
             msgs[static_cast<std::size_t>(self)] == own && (own == nullptr || fold.done != own);
    }
  };

  // The index of `records`, the ledger delivered at `round` to a run of t
  // processes; built by the round's first requester, shared by the rest.
  std::shared_ptr<const Index> index(const Round& round,
                                     const std::vector<DeliveryRecord>& records, int t);

  // Agreement receives served from the index / walked, counted by the
  // processes for tests (relaxed: read after the run).
  void count(bool served) {
    (served ? served_ : walked_).fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t served() const { return served_.load(std::memory_order_relaxed); }
  std::uint64_t walked() const { return walked_.load(std::memory_order_relaxed); }

 private:
  // Fills the foldable index's eligible set.
  static void mark_eligible(Index& idx, const std::vector<DeliveryRecord>& records,
                            std::size_t procs);

  std::mutex mu_;  // guards current_, which is replaced (never mutated) per round
  std::shared_ptr<const Index> current_;
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> walked_{0};
};

class ProtocolDProcess final : public IProcess {
 public:
  // `all_units`/`all_procs`: the starting (S, T) (see DPhaseLoop); a run
  // passes one pair to every process, so its t processes start on one S
  // and one T.
  ProtocolDProcess(const DoAllConfig& cfg, int self,
                   std::shared_ptr<AgreeMergeCache> merge_cache = nullptr,
                   SharedBits all_units = nullptr, SharedBits all_procs = nullptr);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override { return loop_.next_wake(now); }
  std::string describe() const override;

  int phases_completed() const { return loop_.phase() - 1; }
  bool reverted_to_a() const { return loop_.reverted(); }
  const DPhaseLoop& loop() const { return loop_; }

  // Observability accessor (process.h), the loop's.  After a revert, S is
  // frozen at the revert-time value: the embedded Protocol A instance works
  // on virtual ids, so its extra knowledge is not translated back.
  std::int64_t known_done_units() const override { return loop_.known_done_units(); }

 private:
  // Stashes this phase's agreement messages from `inbox` into seen_.
  void walk(const InboxView& inbox);

  int t_;
  DPhaseLoop loop_;
  // This phase's broadcasts, indexed by sender (null = silent), filled by
  // the inbox walk; a flat array instead of a map keeps the per-iteration
  // bookkeeping O(t) with no node allocation.  Allocated on the first walk:
  // a process served from the merge cache's index never walks, and t
  // pointers per process is t^2 pointers per run.  Raw pointers: during an
  // agreement round the inbox owns the payloads for the whole on_round call
  // and seen_ is consumed and cleared before returning; only messages that
  // arrive *early* -- while we are still in the work phase -- outlive their
  // inbox, and those are kept alive by early_retained_ (refcount churn per
  // message was measurable at t = 1024, where an iteration stashes ~t
  // messages).
  std::vector<const AgreeMsg*> seen_;
  std::vector<std::shared_ptr<const Payload>> early_retained_;
  std::shared_ptr<AgreeMergeCache> merge_cache_;  // run-shared; null = always walk
};

}  // namespace dowork
