#include "protocols/protocol_d_coord.h"

#include <algorithm>

namespace dowork {

namespace {
constexpr std::uint64_t kCollectAt = 2;   // coordinator finalizes at R + 2
constexpr std::uint64_t kFallbackAt = 5;  // missing final view => fallback at R + 5
constexpr std::uint64_t kResumeAt = 8;    // next work phase at R + 8
constexpr int kFallbackGrace = 2;         // fallback grace, so listening adopters can answer
}  // namespace

ProtocolDCoordProcess::ProtocolDCoordProcess(const DoAllConfig& cfg, int self)
    : loop_(cfg, self), seen_(static_cast<std::size_t>(cfg.t), nullptr) {}

int ProtocolDCoordProcess::coordinator() const {
  const DynBitset& alive = *loop_.t();
  const std::size_t first = alive.find_next(0);
  return first < alive.size() ? static_cast<int>(first) : 0;
}

void ProtocolDCoordProcess::clear_seen() {
  std::fill(seen_.begin(), seen_.end(), nullptr);
  held_.clear();
}

Action ProtocolDCoordProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (loop_.retired()) return loop_.retired_round(ctx, inbox);

  stash_views(inbox, loop_.phase(), seen_, &held_);

  if (!loop_.agreeing()) {
    if (std::optional<Action> a = loop_.work_round(ctx.round)) return std::move(*a);
    // Agreement entry at R = work_end.
    agr_entry_ = ctx.round;
    resume_at_ = agr_entry_ + Round{kResumeAt};
    responded_ = false;
    loop_.start_agree();
    if (coordinator() == loop_.self()) {
      stage_ = Stage::kCoord;
      return Action::none();  // collect reports for the next two rounds
    }
    stage_ = Stage::kAwait;
    Action a;
    const AgreeView& view = loop_.view();
    a.sends.push_back(Outgoing{coordinator(), MsgKind::kAgreement,
                               std::make_shared<AgreeMsg>(loop_.phase(), view.s_left,
                                                          view.t_alive, false)});
    return a;
  }

  if (stage_ == Stage::kCoord) {
    if (ctx.round < agr_entry_ + Round{kCollectAt}) return Action::none();
    // Finalize: merge every report seen and broadcast the final view.
    loop_.merge(fold_views(seen_));
    clear_seen();
    stage_ = Stage::kListen;  // wait out the fallback window
    responded_ = true;        // the final broadcast goes out now
    return loop_.broadcast(true);
  }

  if (stage_ == Stage::kAwait) {
    if (const AgreeMsg* final_view = fold_views(seen_).done) {
      loop_.adopt(*final_view);
      clear_seen();
      stage_ = Stage::kListen;
      return Action::none();
    }
    if (ctx.round < agr_entry_ + Round{kFallbackAt}) return Action::none();
    // No final view: the coordinator must have died.  Fall back to the
    // broadcast agreement.
    stage_ = Stage::kFallback;
    loop_.start_agree();
    clear_seen();
    return loop_.broadcast(false);
  }

  if (stage_ == Stage::kListen) {
    // An adopter that hears fallback traffic re-broadcasts the final view;
    // the fallback's done-adoption then re-unifies everyone.
    bool fallback_heard = false;
    for (const AgreeMsg* msg : seen_)
      if (msg && !msg->done) fallback_heard = true;
    clear_seen();
    if (fallback_heard && !responded_) {
      responded_ = true;
      return loop_.broadcast(true);
    }
    if (ctx.round < resume_at_) return Action::none();
    loop_.finish_phase(ctx.round);
    if (loop_.terminated()) return loop_.retired_round(ctx, inbox);  // the terminate action
    // Enter the next work phase this same round.  A reverting process
    // takes this path too: in its revert round it cuts a fresh D slice and
    // may perform that slice's first unit, before Protocol A starts at the
    // next round.
    return loop_.work_round(ctx.round).value_or(Action::none());
  }

  // kFallback: the loop's pipelined broadcast agreement.
  const bool over = loop_.receive(fold_views(seen_), kFallbackGrace);
  clear_seen();
  if (!over) return loop_.broadcast(false);
  Action a = loop_.broadcast(true);
  const Round finish_next = ctx.round + Round{1};
  resume_at_ = resume_at_ > finish_next ? resume_at_ : finish_next;
  responded_ = true;
  stage_ = Stage::kListen;  // inert wait until resume_at_
  return a;
}

Round ProtocolDCoordProcess::next_wake(const Round& now) const {
  if (!loop_.agreeing()) return loop_.next_wake(now);  // working or retired
  Round due = now;  // kFallback wakes every round
  if (stage_ == Stage::kCoord) due = agr_entry_ + Round{kCollectAt};
  if (stage_ == Stage::kAwait) due = agr_entry_ + Round{kFallbackAt};
  if (stage_ == Stage::kListen) due = resume_at_;
  return due > now ? due : now;
}

std::string ProtocolDCoordProcess::describe() const {
  return "ProtocolDCoord[" + std::to_string(loop_.self()) +
         ",phase=" + std::to_string(loop_.phase()) + "]";
}

}  // namespace dowork
