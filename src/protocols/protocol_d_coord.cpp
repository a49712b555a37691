#include "protocols/protocol_d_coord.h"

#include <algorithm>

namespace dowork {

namespace {
constexpr std::uint64_t kCollectAt = 2;   // coordinator finalizes at R + 2
constexpr std::uint64_t kFallbackAt = 5;  // missing final view => fallback at R + 5
constexpr std::uint64_t kResumeAt = 8;    // next work phase at R + 8
}  // namespace

ProtocolDCoordProcess::ProtocolDCoordProcess(const DoAllConfig& cfg, int self)
    : n_(cfg.n), t_(cfg.t), self_(self) {
  cfg.validate();
  s_ = share_bits(DynBitset(static_cast<std::size_t>(n_), true));
  t_alive_ = share_bits(DynBitset(static_cast<std::size_t>(t_), true));
  seen_.assign(static_cast<std::size_t>(t_), nullptr);
}

int ProtocolDCoordProcess::coordinator() const {
  const std::size_t first = t_alive_->find_next(0);
  return first < t_alive_->size() ? static_cast<int>(first) : 0;
}

void ProtocolDCoordProcess::enter_work_phase(const Round& now) {
  const std::int64_t w = work_slice(*s_.base, *t_alive_, self_, my_slice_);  // s_ is uncut
  slice_pos_ = 0;
  work_end_ = now + Round{static_cast<std::uint64_t>(w)};
  if (!my_slice_.empty())  // S \ S' as a cut of the shared S, as in Protocol D
    s_ = SView(s_.base, static_cast<std::size_t>(my_slice_.front() - 1),
               static_cast<std::size_t>(my_slice_.back()));
}

void ProtocolDCoordProcess::reset_views() {
  sn_ = s_;
  DynBitset tn(static_cast<std::size_t>(t_));
  tn.set(static_cast<std::size_t>(self_));
  tn_ = share_bits(std::move(tn));
}

Action ProtocolDCoordProcess::broadcast_view(const DynBitset& who, bool done) {
  // The audience "every member of `who` except me" is built per broadcast:
  // the coordinator variant runs at per-table shapes (Protocol D proper
  // caches its audience across iterations).
  DynBitset bits = who;
  bits.reset(static_cast<std::size_t>(self_));
  Action a;
  RecipientSet to = make_recipient_bits(std::move(bits));
  if (!to.empty())
    a.sends.push_back(
        Outgoing{std::move(to), MsgKind::kAgreement, std::make_shared<AgreeMsg>(phase_, sn_, tn_, done)});
  return a;
}

void ProtocolDCoordProcess::clear_seen() {
  std::fill(seen_.begin(), seen_.end(), nullptr);
  held_.clear();
}

void ProtocolDCoordProcess::finish_phase(const Round& now) {
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
  phase_kind_ = PhaseKind::kWork;
  work_entered_ = false;
  clear_seen();
}

Action ProtocolDCoordProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (terminated_) {
    Action a;
    a.terminate = true;
    return a;
  }
  if (phase_kind_ == PhaseKind::kRevertA) return revert_->on_round(ctx, inbox);

  stash_views(inbox, phase_, seen_, &held_);

  if (phase_kind_ == PhaseKind::kWork) {
    if (!work_entered_) {
      work_entered_ = true;
      enter_work_phase(ctx.round);
    }
    if (ctx.round < work_end_) {
      Action a;
      if (slice_pos_ < my_slice_.size()) a.work = my_slice_[slice_pos_++];
      return a;
    }
    // Agreement entry at R = work_end_.
    agr_entry_ = ctx.round;
    reset_views();
    resume_at_ = agr_entry_ + Round{kResumeAt};
    responded_ = false;
    iter_ = 0;
    if (coordinator() == self_) {
      phase_kind_ = PhaseKind::kAgrCoord;
      return Action::none();  // collect reports for the next two rounds
    }
    phase_kind_ = PhaseKind::kAgrAwait;
    Action a;
    auto payload = std::make_shared<AgreeMsg>(phase_, sn_, tn_, false);
    a.sends.push_back(Outgoing{coordinator(), MsgKind::kAgreement, payload});
    return a;
  }

  if (phase_kind_ == PhaseKind::kAgrCoord) {
    if (ctx.round < agr_entry_ + Round{kCollectAt}) return Action::none();
    // Finalize: merge every report seen and broadcast the final view.
    fold_views(seen_).merge_into(sn_, tn_);
    clear_seen();
    Action a = broadcast_view(*t_alive_, true);
    phase_kind_ = PhaseKind::kAgrListen;  // wait out the fallback window
    responded_ = true;                    // the final broadcast already went out
    return a;
  }

  if (phase_kind_ == PhaseKind::kAgrAwait) {
    if (const AgreeMsg* final_view = fold_views(seen_).done) {
      sn_ = final_view->s_left;
      tn_ = final_view->t_alive;
      clear_seen();
      phase_kind_ = PhaseKind::kAgrListen;
      return Action::none();
    }
    if (ctx.round >= agr_entry_ + Round{kFallbackAt}) {
      // No final view: the coordinator must have died.  Fall back to the
      // broadcast agreement (grace 2 so listening adopters can answer).
      phase_kind_ = PhaseKind::kAgrFallback;
      u_ = *t_alive_;
      reset_views();
      iter_ = 0;
      clear_seen();
      return broadcast_view(*t_alive_, false);
    }
    return Action::none();
  }

  if (phase_kind_ == PhaseKind::kAgrListen) {
    // An adopter that hears fallback traffic re-broadcasts the final view;
    // the fallback's done-adoption then re-unifies everyone.
    bool fallback_heard = false;
    for (const AgreeMsg* msg : seen_)
      if (msg && !msg->done) fallback_heard = true;
    clear_seen();
    if (fallback_heard && !responded_) {
      responded_ = true;
      return broadcast_view(*t_alive_, true);
    }
    if (ctx.round >= resume_at_) {
      finish_phase(ctx.round);
      if (terminated_) {
        Action a;
        a.terminate = true;
        return a;
      }
      // Enter the next work phase this same round.  A reverting process
      // takes this path too: in its revert round it cuts a fresh D slice and
      // may perform that slice's first unit, before Protocol A starts at the
      // next round.
      work_entered_ = true;
      enter_work_phase(ctx.round);
      Action a;
      if (slice_pos_ < my_slice_.size()) a.work = my_slice_[slice_pos_++];
      return a;
    }
    return Action::none();
  }

  // kAgrFallback: pipelined broadcast agreement with grace 2.
  bool removed_any = false;
  const bool adopted =
      agree_receive(fold_views(seen_), self_, iter_ >= 2, sn_, tn_, u_, removed_any);
  clear_seen();
  const bool stable = !removed_any && iter_ >= 2;
  ++iter_;
  if (adopted || stable) {
    Action a = broadcast_view(u_, true);
    Round finish_next = ctx.round + Round{1};
    resume_at_ = resume_at_ > finish_next ? resume_at_ : finish_next;
    responded_ = true;
    phase_kind_ = PhaseKind::kAgrListen;  // inert wait until resume_at_
    return a;
  }
  return broadcast_view(u_, false);
}

Round ProtocolDCoordProcess::next_wake(const Round& now) const {
  if (terminated_) return never_round();
  switch (phase_kind_) {
    case PhaseKind::kRevertA:
      return revert_->next_wake(now);
    case PhaseKind::kWork:
      if (!work_entered_ || slice_pos_ < my_slice_.size()) return now;
      return work_end_ > now ? work_end_ : now;
    case PhaseKind::kAgrCoord: {
      Round due = agr_entry_ + Round{kCollectAt};
      return due > now ? due : now;
    }
    case PhaseKind::kAgrAwait: {
      Round due = agr_entry_ + Round{kFallbackAt};
      return due > now ? due : now;
    }
    case PhaseKind::kAgrListen:
      return resume_at_ > now ? resume_at_ : now;
    case PhaseKind::kAgrFallback:
      return now;
    case PhaseKind::kFinished:
      return now;
  }
  return never_round();
}

std::string ProtocolDCoordProcess::describe() const {
  return "ProtocolDCoord[" + std::to_string(self_) + ",phase=" + std::to_string(phase_) + "]";
}

}  // namespace dowork
