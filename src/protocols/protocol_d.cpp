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

void AgreeFold::merge_into(SView& sn_held, SharedBits& tn_held) const {
  if (!sn) return;
  // The AND equals the fold when the fold is within the held view: within
  // its base and clear of its cut.
  if ((sn_held.base == sn || sn->is_subset_of(*sn_held.base)) &&
      sn->count_range(sn_held.lo, sn_held.hi) == 0) {
    sn_held = SView(sn);
  } else {
    SharedBits held = sn_held.flattened().base;
    keep_or_merge(held, sn, /*intersect=*/true);
    sn_held = SView(std::move(held));
  }
  merge_shared(tn_held, tn, /*intersect=*/false);
}

AgreeFold fold_views(const std::vector<const AgreeMsg*>& by_sender) {
  AgreeFold f;
  f.heard = DynBitset(by_sender.size());
  DynBitset sn, tn;
  const DynBitset* last_base = nullptr;
  for (std::size_t i = 0; i < by_sender.size(); ++i) {
    const AgreeMsg* msg = by_sender[i];
    if (!msg) continue;
    f.heard.set(i);
    const DynBitset* base = msg->s_left.base.get();
    if (!last_base) {
      sn = *base;
      tn = *msg->t_alive;
    } else {
      if (base != last_base) sn &= *base;
      tn |= *msg->t_alive;
    }
    last_base = base;
    if (msg->done && !f.done) f.done = msg;
  }
  if (!last_base) return f;
  for (const AgreeMsg* msg : by_sender)
    if (msg && msg->s_left.cut()) sn.reset_range(msg->s_left.lo, msg->s_left.hi);
  f.sn = share_bits(std::move(sn));
  f.tn = share_bits(std::move(tn));
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

bool drop_silent(DynBitset& u, const DynBitset& heard, int self) {
  const std::size_t me = static_cast<std::size_t>(self);
  const bool self_in = u.test(me);
  const std::uint64_t before = u.count();
  u &= heard;
  if (self_in) u.set(me);
  return u.count() != before;
}

bool agree_receive(const AgreeFold& fold, int self, bool past_grace, SView& sn, SharedBits& tn,
                   DynBitset& u, bool& removed_any) {
  if (fold.done) {
    sn = fold.done->s_left;
    tn = fold.done->t_alive;
    return true;
  }
  fold.merge_into(sn, tn);
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
    const RecipientBits* aud = rec.to.shared_bits().get();
    if (aud && rec.cut >= aud->count && aud->bits.size() == procs) {
      idx.eligible &= aud->bits;  // D's uncut broadcast
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

ProtocolDProcess::ProtocolDProcess(const DoAllConfig& cfg, int self,
                                   std::shared_ptr<AgreeMergeCache> merge_cache,
                                   SharedBits all_units, SharedBits all_procs)
    : n_(cfg.n), t_(cfg.t), self_(self), merge_cache_(std::move(merge_cache)) {
  cfg.validate();
  s_ = all_units ? std::move(all_units) : share_bits(DynBitset(static_cast<std::size_t>(n_), true));
  t_alive_ =
      all_procs ? std::move(all_procs) : share_bits(DynBitset(static_cast<std::size_t>(t_), true));
  grace_ = 0;  // phase 1 starts in lockstep: no grace iteration needed
}

void ProtocolDProcess::enter_work_phase(const Round& now) {
  const std::int64_t w = work_slice(*s_.base, *t_alive_, self_, my_slice_);  // s_ is uncut
  slice_pos_ = 0;
  // Everyone spends exactly ceil(|S|/|T|) rounds in the phase (line 7) so the
  // agreement phases stay aligned.
  work_end_ = now + Round{static_cast<std::uint64_t>(w)};
  // Line 8: S := S \ S' -- if we live to broadcast, the slice was performed.
  // The slice is a run of consecutive members of S, so S \ S' is the shared
  // S with the slice's position range cut (see SView).
  if (!my_slice_.empty())
    s_ = SView(s_.base, static_cast<std::size_t>(my_slice_.front() - 1),
               static_cast<std::size_t>(my_slice_.back()));
}

void ProtocolDProcess::enter_agree_phase(const Round&) {
  u_ = *t_alive_;
  audience_.reset();  // u_ changed; the shared audience set is stale
  DynBitset tn(static_cast<std::size_t>(t_));
  tn.set(static_cast<std::size_t>(self_));
  tn_ = share_bits(std::move(tn));
  sn_ = s_;
  iter_ = 0;
  done_ = false;
}

Action ProtocolDProcess::agree_broadcast(bool done) {
  Action a;
  if (!audience_) {
    DynBitset bits = u_;
    if (bits.test(static_cast<std::size_t>(self_))) bits.reset(static_cast<std::size_t>(self_));
    audience_ = make_recipient_bits(std::move(bits));
  }
  if (audience_->count > 0) {
    auto msg = std::make_shared<AgreeMsg>(phase_, sn_, tn_, done);
    last_sent_ = msg;
    a.sends.push_back(Outgoing{audience_, MsgKind::kAgreement, std::move(msg)});
  } else {
    last_sent_.reset();
  }
  return a;
}

void ProtocolDProcess::finish_agree(const Round& now) {
  last_sent_.reset();  // the done broadcast is never folded back in
  const std::uint64_t old_alive = t_alive_->count();
  s_ = sn_.flattened();  // a cut survives only when no view was heard
  t_alive_ = tn_;
  PhaseEnd end = end_phase(old_alive, *s_.base, *t_alive_, self_, now);
  if (end.kind != PhaseEnd::Kind::kNextPhase) {
    revert_ = std::move(end.revert);
    terminated_ = !revert_;
    phase_kind_ = revert_ ? PhaseKind::kRevertA : PhaseKind::kFinished;
    return;
  }
  ++phase_;
  grace_ = 1;  // later phases absorb the <=1 round skew from done-adoption
  phase_kind_ = PhaseKind::kWork;
  work_entered_ = false;
}

Action ProtocolDProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (terminated_) {
    Action a;
    a.terminate = true;
    return a;
  }
  if (phase_kind_ == PhaseKind::kRevertA) return revert_->on_round(ctx, inbox);

  // The round's ledger index, when this process has a run-shared cache and
  // mail (a non-empty view always has a record vector).
  std::shared_ptr<const AgreeMergeCache::Index> idx;
  if (merge_cache_ && !inbox.empty()) idx = merge_cache_->index(ctx.round, *inbox.records(), t_);

  if (phase_kind_ == PhaseKind::kWork) {
    // Early arrivals of this phase (a peer finished the previous agreement
    // first) are stashed for the agreement phase; a ledger carrying no
    // record of this phase has none to stash.
    if (!inbox.empty() && (!idx || idx->carries(phase_))) walk(inbox);
    if (!work_entered_) {
      work_entered_ = true;
      enter_work_phase(ctx.round);
    }
    if (ctx.round < work_end_) {
      Action a;
      if (slice_pos_ < my_slice_.size()) a.work = my_slice_[slice_pos_++];
      return a;
    }
    phase_kind_ = PhaseKind::kAgree;
    enter_agree_phase(ctx.round);
    return agree_broadcast(false);  // iteration-0 broadcast
  }

  // Agreement phase, receive-check for iteration iter_ (peers' iteration-k
  // broadcasts arrive one simulator round after they were sent).
  const bool served =
      idx && early_retained_.empty() && idx->serves(self_, phase_, last_sent_.get());
  if (merge_cache_) merge_cache_->count(served);
  bool removed_any = false;
  bool adopted = false;
  if (served) {
    // The walk would have stashed exactly idx->msgs minus our own slot.
    adopted = agree_receive(idx->fold, self_, iter_ >= grace_, sn_, tn_, u_, removed_any);
  } else {
    walk(inbox);
    adopted = agree_receive(fold_views(seen_), self_, iter_ >= grace_, sn_, tn_, u_, removed_any);
    std::fill(seen_.begin(), seen_.end(), nullptr);
    early_retained_.clear();
  }
  if (removed_any) audience_.reset();  // u_ changed; rebuild on next broadcast
  const bool stable = !removed_any && iter_ >= grace_;
  ++iter_;

  if (adopted || stable) {
    Action a = agree_broadcast(true);  // line 20: final view, done = true
    finish_agree(ctx.round);
    if (terminated_) a.terminate = true;
    return a;
  }
  return agree_broadcast(false);
}

void ProtocolDProcess::walk(const InboxView& inbox) {
  // Early arrivals land while we are still in the work phase and must
  // outlive the recycled round ledger, so their payloads are retained;
  // agreement-round arrivals are consumed before on_round returns (see the
  // seen_ comment in the header).
  if (seen_.empty()) seen_.assign(static_cast<std::size_t>(t_), nullptr);
  stash_views(inbox, phase_, seen_, phase_kind_ == PhaseKind::kWork ? &early_retained_ : nullptr);
}

Round ProtocolDProcess::next_wake(const Round& now) const {
  if (terminated_) return never_round();
  switch (phase_kind_) {
    case PhaseKind::kRevertA:
      return revert_->next_wake(now);
    case PhaseKind::kWork:
      if (!work_entered_ || slice_pos_ < my_slice_.size()) return now;
      return work_end_ > now ? work_end_ : now;
    case PhaseKind::kAgree:
      return now;
    case PhaseKind::kFinished:
      return now;  // wake once more to emit the terminate action
  }
  return never_round();
}

std::string ProtocolDProcess::describe() const {
  return "ProtocolD[" + std::to_string(self_) + ",phase=" + std::to_string(phase_) + "]";
}

}  // namespace dowork
