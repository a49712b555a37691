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
  s_ = DynBitset(static_cast<std::size_t>(n_), true);
  t_alive_ = DynBitset(static_cast<std::size_t>(t_), true);
  seen_.assign(static_cast<std::size_t>(t_), nullptr);
}

int ProtocolDCoordProcess::coordinator() const {
  const std::size_t first = t_alive_.find_next(0);
  return first < t_alive_.size() ? static_cast<int>(first) : 0;
}

void ProtocolDCoordProcess::enter_work_phase(const Round& now) {
  std::vector<std::int64_t> outstanding;
  for (std::size_t i = s_.find_next(0); i < s_.size(); i = s_.find_next(i + 1))
    outstanding.push_back(static_cast<std::int64_t>(i) + 1);
  const std::uint64_t alive = std::max<std::uint64_t>(1, t_alive_.count());
  const std::int64_t w = ceil_div(static_cast<std::int64_t>(outstanding.size()),
                                  static_cast<std::int64_t>(alive));
  my_slice_.clear();
  slice_pos_ = 0;
  if (t_alive_.test(static_cast<std::size_t>(self_))) {
    const std::int64_t rank =
        static_cast<std::int64_t>(t_alive_.count_prefix(static_cast<std::size_t>(self_)));
    const std::int64_t from = rank * w;
    const std::int64_t to =
        std::min<std::int64_t>(from + w, static_cast<std::int64_t>(outstanding.size()));
    for (std::int64_t k = from; k < to; ++k)
      my_slice_.push_back(outstanding[static_cast<std::size_t>(k)]);
  }
  work_end_ = now + Round{static_cast<std::uint64_t>(w)};
  for (std::int64_t u : my_slice_) s_.reset(static_cast<std::size_t>(u - 1));
}

namespace {

// The audience "every member of `who` except me" as a shared recipient set.
// The coordinator variant runs at per-table shapes, so the sets are built
// per broadcast (Protocol D proper caches its audience across iterations).
RecipientSet audience_of(const DynBitset& who, int self) {
  DynBitset bits = who;
  if (bits.test(static_cast<std::size_t>(self))) bits.reset(static_cast<std::size_t>(self));
  return make_recipient_bits(std::move(bits));
}

}  // namespace

Action ProtocolDCoordProcess::broadcast_view(bool done) {
  Action a;
  RecipientSet to = audience_of(t_alive_, self_);
  if (!to.empty())
    a.sends.push_back(
        Outgoing{std::move(to), MsgKind::kAgreement, std::make_shared<AgreeMsg>(phase_, sn_, tn_, done)});
  return a;
}

void ProtocolDCoordProcess::finish_phase(const Round& now) {
  const std::uint64_t old_alive = t_alive_.count();
  s_ = sn_;
  t_alive_ = tn_;
  const std::uint64_t new_alive = std::max<std::uint64_t>(1, t_alive_.count());

  if (old_alive > 2 * new_alive) {
    std::vector<std::int64_t> units;
    for (std::size_t i = s_.find_next(0); i < s_.size(); i = s_.find_next(i + 1))
      units.push_back(static_cast<std::int64_t>(i) + 1);
    if (units.empty() || !t_alive_.test(static_cast<std::size_t>(self_))) {
      terminated_ = true;
      phase_kind_ = PhaseKind::kFinished;
      return;
    }
    rank_to_id_.clear();
    id_to_rank_.assign(static_cast<std::size_t>(t_), -1);
    for (int i = 0; i < t_; ++i) {
      if (t_alive_.test(static_cast<std::size_t>(i))) {
        id_to_rank_[static_cast<std::size_t>(i)] = static_cast<int>(rank_to_id_.size());
        rank_to_id_.push_back(i);
      }
    }
    DoAllConfig sub{static_cast<std::int64_t>(units.size()),
                    static_cast<int>(rank_to_id_.size())};
    revert_ = std::make_unique<ProtocolAProcess>(
        sub, id_to_rank_[static_cast<std::size_t>(self_)], now + Round{1}, std::move(units));
    phase_kind_ = PhaseKind::kRevertA;
    return;
  }
  if (s_.none() || !t_alive_.test(static_cast<std::size_t>(self_))) {
    terminated_ = true;
    phase_kind_ = PhaseKind::kFinished;
    return;
  }
  ++phase_;
  phase_kind_ = PhaseKind::kWork;
  work_entered_ = false;
  std::fill(seen_.begin(), seen_.end(), nullptr);
}

Action ProtocolDCoordProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (terminated_) {
    Action a;
    a.terminate = true;
    return a;
  }
  if (phase_kind_ == PhaseKind::kRevertA) {
    std::vector<Envelope> translated;
    for (const Msg& msg : inbox) {
      if (msg.from < 0 || id_to_rank_[static_cast<std::size_t>(msg.from)] < 0) continue;
      translated.push_back(Envelope{id_to_rank_[static_cast<std::size_t>(msg.from)], self_,
                                    msg.kind, msg.sent_round(), msg.payload()});
    }
    Action a = revert_->on_round(ctx, translated);
    for (Outgoing& o : a.sends) o.to = remap_recipients(o.to, rank_to_id_, t_);
    return a;
  }

  for (const Msg& msg : inbox) {
    if (const auto* m = msg.as<AgreeMsg>(); m != nullptr && m->phase == phase_)
      seen_[static_cast<std::size_t>(msg.from)] =
          std::static_pointer_cast<const AgreeMsg>(msg.payload());
  }

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
    sn_ = s_;
    tn_ = DynBitset(static_cast<std::size_t>(t_));
    tn_.set(static_cast<std::size_t>(self_));
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
    for (const auto& msg : seen_) {
      if (!msg) continue;
      sn_ &= msg->s_left;
      tn_ |= msg->t_alive;
    }
    std::fill(seen_.begin(), seen_.end(), nullptr);
    Action a = broadcast_view(true);
    phase_kind_ = PhaseKind::kAgrListen;  // wait out the fallback window
    responded_ = true;                    // the final broadcast already went out
    return a;
  }

  if (phase_kind_ == PhaseKind::kAgrAwait) {
    for (const auto& msg : seen_) {
      if (msg && msg->done) {
        sn_ = msg->s_left;
        tn_ = msg->t_alive;
        std::fill(seen_.begin(), seen_.end(), nullptr);
        phase_kind_ = PhaseKind::kAgrListen;
        return Action::none();
      }
    }
    if (ctx.round >= agr_entry_ + Round{kFallbackAt}) {
      // No final view: the coordinator must have died.  Fall back to the
      // broadcast agreement (grace 2 so listening adopters can answer).
      phase_kind_ = PhaseKind::kAgrFallback;
      u_ = t_alive_;
      sn_ = s_;
      tn_ = DynBitset(static_cast<std::size_t>(t_));
      tn_.set(static_cast<std::size_t>(self_));
      iter_ = 0;
      std::fill(seen_.begin(), seen_.end(), nullptr);
      return broadcast_view(false);
    }
    return Action::none();
  }

  if (phase_kind_ == PhaseKind::kAgrListen) {
    // An adopter that hears fallback traffic re-broadcasts the final view;
    // the fallback's done-adoption then re-unifies everyone.
    bool fallback_heard = false;
    for (const auto& msg : seen_)
      if (msg && !msg->done) fallback_heard = true;
    std::fill(seen_.begin(), seen_.end(), nullptr);
    if (fallback_heard && !responded_) {
      responded_ = true;
      return broadcast_view(true);
    }
    if (ctx.round >= resume_at_) {
      finish_phase(ctx.round);
      if (terminated_) {
        Action a;
        a.terminate = true;
        return a;
      }
      // Enter the next work phase this same round.
      work_entered_ = true;
      enter_work_phase(ctx.round);
      Action a;
      if (slice_pos_ < my_slice_.size()) a.work = my_slice_[slice_pos_++];
      return a;
    }
    return Action::none();
  }

  // kAgrFallback: pipelined broadcast agreement with grace 2.
  bool adopted = false;
  for (int i = 0; i < t_; ++i) {
    const auto& msg = seen_[static_cast<std::size_t>(i)];
    if (msg && msg->done) {
      sn_ = msg->s_left;
      tn_ = msg->t_alive;
      adopted = true;
      break;
    }
  }
  bool removed_any = false;
  if (!adopted) {
    for (int i = 0; i < t_; ++i) {
      const auto& msg = seen_[static_cast<std::size_t>(i)];
      if (!msg) continue;
      sn_ &= msg->s_left;
      tn_ |= msg->t_alive;
    }
    if (iter_ >= 2) {
      for (int i = 0; i < t_; ++i) {
        if (i != self_ && u_.test(static_cast<std::size_t>(i)) &&
            !seen_[static_cast<std::size_t>(i)]) {
          u_.reset(static_cast<std::size_t>(i));
          removed_any = true;
        }
      }
    }
  }
  std::fill(seen_.begin(), seen_.end(), nullptr);
  const bool stable = !removed_any && iter_ >= 2;
  ++iter_;
  if (adopted || stable) {
    Action a;
    RecipientSet to = audience_of(u_, self_);
    if (!to.empty())
      a.sends.push_back(Outgoing{std::move(to), MsgKind::kAgreement,
                                 std::make_shared<AgreeMsg>(phase_, sn_, tn_, true)});
    Round finish_next = ctx.round + Round{1};
    resume_at_ = resume_at_ > finish_next ? resume_at_ : finish_next;
    responded_ = true;
    phase_kind_ = PhaseKind::kAgrListen;  // inert wait until resume_at_
    return a;
  }
  Action a;
  RecipientSet to = audience_of(u_, self_);
  if (!to.empty())
    a.sends.push_back(Outgoing{std::move(to), MsgKind::kAgreement,
                               std::make_shared<AgreeMsg>(phase_, sn_, tn_, false)});
  return a;
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
