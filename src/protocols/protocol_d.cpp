#include "protocols/protocol_d.h"

#include <algorithm>

namespace dowork {

std::int64_t work_slice(const DynBitset& outstanding, const DynBitset& alive, int self,
                        std::vector<std::int64_t>& slice) {
  const std::int64_t left = static_cast<std::int64_t>(outstanding.count());
  const std::uint64_t procs = std::max<std::uint64_t>(1, alive.count());
  const std::int64_t w = ceil_div(left, static_cast<std::int64_t>(procs));
  slice.clear();
  if (alive.test(static_cast<std::size_t>(self))) {
    const std::int64_t rank =
        static_cast<std::int64_t>(alive.count_prefix(static_cast<std::size_t>(self)));
    const std::int64_t from = rank * w;
    const std::int64_t to = std::min<std::int64_t>(from + w, left);
    if (from < to) {
      std::size_t i = outstanding.select(static_cast<std::uint64_t>(from));
      for (std::int64_t k = from; k < to; ++k, i = outstanding.find_next(i + 1))
        slice.push_back(static_cast<std::int64_t>(i) + 1);
    }
  }
  return w;
}

namespace {

// held := held AND fold (intersect) or held OR fold, given the result is not
// fold's content: the held object when the result equals it, a fresh one
// otherwise.
void keep_or_merge(SharedBits& held, const SharedBits& fold, bool intersect) {
  // a AND b equals a when a is a subset of b; a OR b when b is a subset of a.
  if (intersect ? held->is_subset_of(*fold) : fold->is_subset_of(*held)) return;
  DynBitset merged = *held;
  if (intersect)
    merged &= *fold;
  else
    merged |= *fold;
  held = share_bits(std::move(merged));
}

// held := held AND fold (intersect) or held OR fold, sharing by content:
// the fold's object when the result equals it, the held one when the result
// equals that, a fresh object only when the result is neither.
void merge_shared(SharedBits& held, const SharedBits& fold, bool intersect) {
  if (held == fold) return;
  if (intersect ? fold->is_subset_of(*held) : held->is_subset_of(*fold))
    held = fold;
  else
    keep_or_merge(held, fold, intersect);
}

}  // namespace

void AgreeFold::merge_into(AgreeView& held, int self) const {
  if (!sn) return;
  if (holds_own_view && heard->test(static_cast<std::size_t>(self))) {
    // held is one of the folded views: the fold's AND is within it and its
    // ORs hold it, so every result is the fold's set as it stands.
    held.s_left = SView(sn);
    held.t_alive = tn;
    held.known = kn;
    held.past_horizon = past_horizon;
    return;
  }
  // The AND equals the fold when the fold is within the held view: within
  // its base and clear of its cut.
  SView& s = held.s_left;
  if ((s.base == sn || sn->is_subset_of(*s.base)) && sn->count_range(s.lo, s.hi) == 0) {
    s = SView(sn);
  } else {
    SharedBits flat = s.flattened().base;
    keep_or_merge(flat, sn, /*intersect=*/true);
    s = SView(std::move(flat));
  }
  if (held.t_alive) {
    merge_shared(held.t_alive, tn, /*intersect=*/false);
  } else if (tn->test(static_cast<std::size_t>(self))) {
    held.t_alive = tn;  // {self} | tn is tn
  } else {
    DynBitset t = *tn;
    t.set(static_cast<std::size_t>(self));
    held.t_alive = share_bits(std::move(t));
  }
  if (held.known && kn)
    merge_shared(held.known, kn, /*intersect=*/false);
  else
    held.known = nullptr;  // either side knows every unit
  held.past_horizon = held.past_horizon && past_horizon;
}

AgreeFold fold_views(const std::vector<const AgreeMsg*>& by_sender) {
  AgreeFold f;
  DynBitset heard(by_sender.size());
  DynBitset sn, tn, kn;
  bool every_unit = false;
  // Survivors share their S base and their T, so a view whose object is the
  // previous view's adds nothing to the AND or the OR and is skipped.
  const DynBitset* last_base = nullptr;
  const DynBitset* last_t = nullptr;
  for (std::size_t i = 0; i < by_sender.size(); ++i) {
    const AgreeMsg* msg = by_sender[i];
    if (!msg) continue;
    heard.set(i);
    const DynBitset* base = msg->s_left.base.get();
    const DynBitset* t = msg->t_alive.get();
    if (!last_base) {
      sn = *base;
      tn = t ? *t : DynBitset(by_sender.size());
    } else {
      if (base != last_base) sn &= *base;
      if (t && t != last_t) tn |= *t;
    }
    if (!t) tn.set(i);  // the implicit {sender}
    last_base = base;
    last_t = t;
    if (!msg->known)
      every_unit = true;
    else if (kn.size() == 0)
      kn = *msg->known;
    else
      kn |= *msg->known;
    f.past_horizon = f.past_horizon && msg->past_horizon;
    if (msg->done && !f.done) f.done = msg;
  }
  f.heard = share_bits(std::move(heard));
  if (!last_base) return f;
  for (const AgreeMsg* msg : by_sender)
    if (msg && msg->s_left.cut()) sn.reset_range(msg->s_left.lo, msg->s_left.hi);
  f.sn = share_bits(std::move(sn));
  f.tn = share_bits(std::move(tn));
  if (!every_unit) f.kn = share_bits(std::move(kn));
  return f;
}

void stash_views(const InboxView& inbox, int phase, std::vector<const AgreeMsg*>& by_sender,
                 std::vector<std::shared_ptr<const Payload>>* retained) {
  for (const Msg& msg : inbox) {
    if (const auto* m = msg.as<AgreeMsg>(); m != nullptr && m->phase == phase) {
      by_sender[static_cast<std::size_t>(msg.from)] = m;
      if (retained) retained->push_back(msg.payload());
    }
  }
}

bool drop_silent(SharedBits& u, const SharedBits& heard, int self) {
  if (u == heard) return false;
  const std::size_t me = static_cast<std::size_t>(self);
  const bool self_in = u->test(me);
  if (heard->is_subset_of(*u) && (!self_in || heard->test(me))) {
    // (u & heard) | ({self} & u) is heard itself: equal counts mean u
    // already is, else take the shared object.
    if (heard->count() == u->count()) return false;
    u = heard;
    return true;
  }
  DynBitset kept = *u;
  kept &= *heard;
  if (self_in) kept.set(me);
  if (kept.count() == u->count()) return false;
  u = share_bits(std::move(kept));
  return true;
}

bool agree_receive(const AgreeFold& fold, int self, bool past_grace, AgreeView& held,
                   SharedBits& u, bool& removed_any) {
  if (fold.done) {
    held = *fold.done;
    return true;
  }
  fold.merge_into(held, self);
  if (past_grace && drop_silent(u, fold.heard, self)) removed_any = true;
  return false;
}

RevertToA::RevertToA(const DynBitset& s, const DynBitset& alive, int self, const Round& start)
    : id_to_rank_(alive.size(), -1) {
  std::vector<std::int64_t> units;
  for (std::size_t i = s.find_next(0); i < s.size(); i = s.find_next(i + 1))
    units.push_back(static_cast<std::int64_t>(i) + 1);
  for (std::size_t i = alive.find_next(0); i < alive.size(); i = alive.find_next(i + 1)) {
    id_to_rank_[i] = static_cast<int>(rank_to_id_.size());
    rank_to_id_.push_back(static_cast<int>(i));
  }
  rank_ = id_to_rank_[static_cast<std::size_t>(self)];
  DoAllConfig sub{static_cast<std::int64_t>(units.size()), static_cast<int>(rank_to_id_.size())};
  a_ = std::make_unique<ProtocolAProcess>(sub, rank_, start, std::move(units));
}

Action RevertToA::on_round(const RoundContext& ctx, const InboxView& inbox) {
  // The embedded A reads rank-space mail: each message becomes one record
  // addressed to our rank.
  std::vector<DeliveryRecord> translated;
  for (const Msg& msg : inbox) {
    if (msg.from < 0 || id_to_rank_[static_cast<std::size_t>(msg.from)] < 0)
      continue;  // stale pre-revert traffic
    translated.push_back(DeliveryRecord{id_to_rank_[static_cast<std::size_t>(msg.from)], msg.kind,
                                        1, rank_, msg.payload(), msg.sent_round()});
  }
  Action a = a_->on_round(ctx, InboxView(translated, rank_, !translated.empty()));
  // The embedded Protocol A addresses rank-space ranges; map them back to
  // real ids (generally non-contiguous, so ranges become bit sets).
  const int t = static_cast<int>(id_to_rank_.size());
  for (Outgoing& o : a.sends) o.to = remap_recipients(o.to, rank_to_id_, t);
  return a;
}

PhaseEnd end_phase(std::uint64_t old_alive, const DynBitset& s, const DynBitset& alive, int self,
                   const Round& now) {
  const bool in_t = alive.test(static_cast<std::size_t>(self));
  if (old_alive > 2 * std::max<std::uint64_t>(1, alive.count()) && s.any() && in_t) {
    // More than half the processes died this phase: hand the leftovers to
    // Protocol A (work-optimal regardless of failure pattern) rather than
    // risk the adaptive-adversary lower bound.
    return {PhaseEnd::Kind::kRevert, std::make_unique<RevertToA>(s, alive, self, now + Round{1})};
  }
  if (s.none() || !in_t) return {PhaseEnd::Kind::kTerminate, nullptr};
  return {PhaseEnd::Kind::kNextPhase, nullptr};
}

std::shared_ptr<const AgreeMergeCache::Index> AgreeMergeCache::index(
    const Round& round, const std::vector<DeliveryRecord>& records, int t) {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ && current_->round == round && current_->records == &records) return current_;
  auto idx = std::make_shared<Index>();
  idx->round = round;
  idx->records = &records;
  const std::size_t procs = static_cast<std::size_t>(t);
  idx->msgs.assign(procs, nullptr);
  for (const DeliveryRecord& rec : records) {
    const auto* m = detail::payload_as<AgreeMsg>(rec.payload.get());
    if (m == nullptr) continue;
    idx->phase_lo = std::min(idx->phase_lo, m->phase);
    idx->phase_hi = std::max(idx->phase_hi, m->phase);
    const std::size_t from = static_cast<std::size_t>(rec.from);
    if (idx->msgs[from] != nullptr) idx->one_per_sender = false;
    idx->msgs[from] = m;
  }
  if (idx->foldable()) {
    mark_eligible(*idx, records, procs);
    idx->fold = fold_views(idx->msgs);
    // serves() admits a recipient only when its slot holds its last
    // broadcast, which aliases its held view.
    idx->fold.holds_own_view = true;
  }
  current_ = idx;
  return idx;
}

void AgreeMergeCache::mark_eligible(Index& idx, const std::vector<DeliveryRecord>& records,
                                    std::size_t procs) {
  idx.eligible = DynBitset(procs, true);
  DynBitset reached;
  for (const DeliveryRecord& rec : records) {
    if (detail::payload_as<AgreeMsg>(rec.payload.get()) == nullptr) continue;
    // A sender stays eligible unless it hears itself; everyone else must be
    // among the recipients this record actually reached.
    const std::size_t from = static_cast<std::size_t>(rec.from);
    const bool keep = idx.eligible.test(from) && !rec.delivers_to(rec.from);
    const SharedBits& aud = rec.to.shared_bits();
    if (aud && rec.cut >= rec.to.size() && aud->size() == procs) {
      idx.eligible &= *aud;  // D's uncut broadcast: u, less its sender
      if (rec.to.excluded() >= 0) idx.eligible.reset(static_cast<std::size_t>(rec.to.excluded()));
    } else {
      if (reached.size() == 0) reached = DynBitset(procs);
      reached.reset_all();
      rec.to.mark_prefix(reached, rec.cut);
      idx.eligible &= reached;
    }
    if (keep)
      idx.eligible.set(from);
    else
      idx.eligible.reset(from);
  }
}

DPhaseLoop::DPhaseLoop(const DoAllConfig& cfg, int self, SharedBits all_units,
                       SharedBits all_procs, SharedBits known)
    : self_(self), k_(std::move(known)) {
  cfg.validate();
  s_ = all_units ? std::move(all_units)
                 : share_bits(DynBitset(static_cast<std::size_t>(cfg.n), true));
  t_ = all_procs ? std::move(all_procs)
                 : share_bits(DynBitset(static_cast<std::size_t>(cfg.t), true));
}

Action DPhaseLoop::retired_round(const RoundContext& ctx, const InboxView& inbox) {
  if (revert_) return revert_->on_round(ctx, inbox);
  Action a;
  a.terminate = true;
  return a;
}

std::optional<Action> DPhaseLoop::work_round(const Round& now) {
  if (!work_entered_) {
    work_entered_ = true;
    const DynBitset& s = *s_.base;  // s_ is uncut
    DynBitset outstanding;
    if (k_) {
      outstanding = *k_;
      outstanding &= s;
    }
    const std::int64_t w =
        std::max<std::int64_t>(1, work_slice(k_ ? outstanding : s, *t_, self_, slice_));
    cursor_ = 0;
    work_end_ = now + Round{static_cast<std::uint64_t>(w)};
    if (!slice_.empty()) {
      const std::size_t lo = static_cast<std::size_t>(slice_.front() - 1);
      const std::size_t hi = static_cast<std::size_t>(slice_.back());
      if (s.count_range(lo, hi) == slice_.size()) {
        s_ = SView(s_.base, lo, hi);
      } else {  // the range also holds units not yet known
        DynBitset cut = s;
        for (std::int64_t unit : slice_) cut.reset(static_cast<std::size_t>(unit - 1));
        s_ = share_bits(std::move(cut));
      }
    }
  }
  if (now >= work_end_) return std::nullopt;
  Action a;
  if (cursor_ < slice_.size()) a.work = slice_[cursor_++];
  return a;
}

void DPhaseLoop::start_agree(bool past_horizon, const DynBitset* arrived) {
  agreeing_ = true;
  u_ = t_;
  view_.s_left = s_;
  view_.t_alive = nullptr;  // {self}
  view_.known = k_;
  if (arrived && !arrived->is_subset_of(*k_)) {
    DynBitset known = *k_;
    known |= *arrived;
    view_.known = share_bits(std::move(known));
  }
  view_.past_horizon = past_horizon;
  iter_ = 0;
}

Action DPhaseLoop::broadcast(bool done) {
  Action a;
  if (audience_.shared_bits() != u_) audience_ = RecipientSet(u_, self_);
  if (!audience_.empty()) {
    if (done && !view_.t_alive) view_.t_alive = only_self();
    auto msg = std::make_shared<AgreeMsg>(phase_, view_.s_left, view_.t_alive, done, view_.known,
                                          view_.past_horizon);
    last_sent_ = msg;
    a.sends.push_back(Outgoing{audience_, MsgKind::kAgreement, std::move(msg)});
  } else {
    last_sent_.reset();
  }
  return a;
}

bool DPhaseLoop::receive(const AgreeFold& fold, int grace) {
  const bool past_grace = iter_ >= grace;
  bool removed_any = false;
  const bool adopted = agree_receive(fold, self_, past_grace, view_, u_, removed_any);
  ++iter_;
  return adopted || (past_grace && !removed_any);
}

void DPhaseLoop::finish_phase(const Round& now) {
  const std::uint64_t old_alive = t_->count();
  close_agreement();
  end(end_phase(old_alive, *s_.base, *t_, self_, now));
}

void DPhaseLoop::close_agreement() {
  agreeing_ = false;
  work_entered_ = false;
  last_sent_.reset();  // the done broadcast is never folded back in
  s_ = view_.s_left.flattened();  // a cut survives only when no view was heard
  t_ = view_.t_alive ? view_.t_alive : only_self();  // heard no view: T = {self}
  k_ = view_.known;
}

SharedBits DPhaseLoop::only_self() const {
  DynBitset t(t_->size());
  t.set(static_cast<std::size_t>(self_));
  return share_bits(std::move(t));
}

void DPhaseLoop::end(PhaseEnd e) {
  if (e.kind == PhaseEnd::Kind::kNextPhase) {
    ++phase_;
  } else {
    revert_ = std::move(e.revert);
    terminated_ = !revert_;
  }
}

Round DPhaseLoop::next_wake(const Round& now) const {
  if (terminated_) return never_round();
  if (revert_) return revert_->next_wake(now);
  if (agreeing_ || !work_entered_ || cursor_ < slice_.size()) return now;
  return work_end_ > now ? work_end_ : now;
}

ProtocolDProcess::ProtocolDProcess(const DoAllConfig& cfg, int self,
                                   std::shared_ptr<AgreeMergeCache> merge_cache,
                                   SharedBits all_units, SharedBits all_procs)
    : t_(cfg.t),
      loop_(cfg, self, std::move(all_units), std::move(all_procs)),
      merge_cache_(std::move(merge_cache)) {}

Action ProtocolDProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (loop_.retired()) return loop_.retired_round(ctx, inbox);

  // The round's ledger index, when this process has a run-shared cache and
  // mail (a non-empty view always has a record vector).
  std::shared_ptr<const AgreeMergeCache::Index> idx;
  if (merge_cache_ && !inbox.empty()) idx = merge_cache_->index(ctx.round, *inbox.records(), t_);

  if (!loop_.agreeing()) {
    // Early arrivals of this phase (a peer finished the previous agreement
    // first) are stashed for the agreement phase; a ledger carrying no
    // record of this phase has none to stash.
    if (!inbox.empty() && (!idx || idx->carries(loop_.phase()))) walk(inbox);
    if (std::optional<Action> a = loop_.work_round(ctx.round)) return std::move(*a);
    loop_.start_agree();
    return loop_.broadcast(false);  // iteration-0 broadcast
  }

  // Agreement phase, receive-check for the current iteration (peers'
  // iteration-k broadcasts arrive one simulator round after they were
  // sent).  Phase 1 starts in lockstep; later phases allow one grace
  // iteration for the <=1 round skew left by done-adoption.
  const int grace = loop_.phase() == 1 ? 0 : 1;
  const bool served = idx && early_retained_.empty() &&
                      idx->serves(loop_.self(), loop_.phase(), loop_.last_sent());
  if (merge_cache_) merge_cache_->count(served);
  bool over = false;
  if (served) {
    // The walk would have stashed exactly idx->msgs minus our own slot.
    over = loop_.receive(idx->fold, grace);
  } else {
    walk(inbox);
    over = loop_.receive(fold_views(seen_), grace);
    std::fill(seen_.begin(), seen_.end(), nullptr);
    early_retained_.clear();
  }
  if (!over) return loop_.broadcast(false);
  Action a = loop_.broadcast(true);  // line 20: final view, done = true
  loop_.finish_phase(ctx.round);
  a.terminate = loop_.terminated();
  return a;
}

void ProtocolDProcess::walk(const InboxView& inbox) {
  // Early arrivals land while we are still in the work phase and must
  // outlive the recycled round ledger, so their payloads are retained;
  // agreement-round arrivals are consumed before on_round returns (see the
  // seen_ comment in the header).
  if (seen_.empty()) seen_.assign(static_cast<std::size_t>(t_), nullptr);
  stash_views(inbox, loop_.phase(), seen_, loop_.agreeing() ? nullptr : &early_retained_);
}

std::string ProtocolDProcess::describe() const {
  return "ProtocolD[" + std::to_string(loop_.self()) + ",phase=" + std::to_string(loop_.phase()) +
         "]";
}

}  // namespace dowork
