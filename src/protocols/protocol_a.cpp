#include "protocols/protocol_a.h"

#include <algorithm>

namespace dowork {

ActivePlan::ActivePlan(const GroupLayout& layout, const WorkPartition& part, int self,
                       const LastCheckpoint& last)
    : layout_(layout), part_(part) {
  gj_ = layout_.group_of(self);
  own_rest_ =
      IdRange{std::max(layout_.first_of_group(gj_), self + 1), layout_.end_of_group(gj_)};

  // The takeover's entry state (Figure 1, DoWork lines 1-9): finish the
  // checkpoint of last.c where the predecessor may have been cut off, then
  // the main loop resumes at subchunk last.c + 1.
  c_ = last.c;
  if (c_ == 0) {
    advance_subchunk();  // nothing received: a fresh start
  } else if (last.g.has_value() && layout_.group_of(last.from) == gj_) {
    g_ = *last.g;  // echo (c, g), g > g_j, from a group mate
    stage_ = Stage::kFullEcho;
  } else {
    stage_ = Stage::kPartial;  // partial (c), or direct (c, g_j) at a chunk boundary
  }
  ActiveOp op;
  if (produce(&op)) next_ = std::move(op);
}

void ActivePlan::advance_subchunk() {
  ++c_;
  if (c_ > part_.num_subchunks()) {
    stage_ = Stage::kDone;
    return;
  }
  u_ = part_.sub_begin(c_);
  stage_ = Stage::kUnits;
}

bool ActivePlan::produce(ActiveOp* out) {
  while (true) {
    switch (stage_) {
      case Stage::kDone:
        return false;
      case Stage::kUnits: {
        if (u_ <= part_.sub_end(c_)) {
          *out = ActiveOp{u_++, {}, nullptr};
          return true;
        }
        stage_ = Stage::kPartial;
        break;
      }
      case Stage::kPartial: {
        const int c = c_;
        if (part_.is_chunk_boundary(c_)) {
          stage_ = Stage::kFullDirect;
          g_ = gj_ + 1;
        } else {
          advance_subchunk();
        }
        if (!own_rest_.empty()) {
          *out = ActiveOp{std::nullopt, own_rest_, std::make_shared<CkptPartial>(c)};
          return true;
        }
        break;
      }
      case Stage::kFullDirect: {
        if (g_ >= layout_.num_groups()) {
          advance_subchunk();
          break;
        }
        *out = ActiveOp{std::nullopt,
                        IdRange{layout_.first_of_group(g_), layout_.end_of_group(g_)},
                        std::make_shared<CkptFull>(c_, g_)};
        stage_ = Stage::kFullEcho;
        return true;
      }
      case Stage::kFullEcho: {
        const int g = g_;
        ++g_;
        stage_ = Stage::kFullDirect;
        if (!own_rest_.empty()) {
          *out = ActiveOp{std::nullopt, own_rest_, std::make_shared<CkptFull>(c_, g)};
          return true;
        }
        break;
      }
    }
  }
}

ActiveOp ActivePlan::pop() {
  ActiveOp out = std::move(*next_);
  next_.reset();
  ActiveOp refill;
  if (produce(&refill)) next_ = std::move(refill);
  return out;
}

std::deque<ActiveOp> build_active_plan(const GroupLayout& layout, const WorkPartition& part,
                                       int self, const LastCheckpoint& last) {
  ActivePlan cursor(layout, part, self, last);
  std::deque<ActiveOp> plan;
  while (!cursor.empty()) plan.push_back(cursor.pop());
  return plan;
}

CheckpointCore::CheckpointCore(const DoAllConfig& cfg, int self, const Round& start_round)
    : layout_(GroupLayout::for_sqrt(cfg.t)),
      self_(self),
      part_(WorkPartition::for_protocol_a(cfg.n, cfg.t)),
      last_{0, layout_.group_of(self), 0, start_round} {
  cfg.validate();
}

bool CheckpointCore::ingest(const Payload* payload, int from, const Round& received_round) {
  // A real checkpoint names a subchunk c >= 1 (c == 0 means nothing
  // received), and a full one always a chunk boundary, which is what lets
  // ActivePlan resume a direct (c, g_self) through its partial stage.
  const int last_sub = part_.num_subchunks();
  if (const auto* p = detail::payload_as<CkptPartial>(payload)) {
    if (p->c == last_sub) completion_seen_ = true;
    last_ = LastCheckpoint{p->c, std::nullopt, from, received_round};
    return true;
  }
  if (const auto* f = detail::payload_as<CkptFull>(payload)) {
    // Only the direct form addressed to our group; an echo (t, g) names a
    // higher group and tells a group mate nothing final.
    if (f->c == last_sub && f->g == layout_.group_of(self_)) completion_seen_ = true;
    last_ = LastCheckpoint{f->c, f->g, from, received_round};
    return true;
  }
  return false;
}

void CheckpointCore::activate() {
  phase_ = Phase::kActive;
  plan_ = std::make_unique<ActivePlan>(layout_, part_, self_, last_);
}

Action CheckpointCore::step() {
  Action a;
  if (plan_ && !plan_->empty()) {
    ActiveOp op = plan_->pop();
    if (op.work) {
      a.work = op.work;
      if (*op.work > top_unit_) top_unit_ = *op.work;
    } else {
      // The whole group broadcast is ONE range-addressed send; the delivery
      // plane never materializes per-recipient messages.
      a.sends.push_back(Outgoing{op.recipients, MsgKind::kCheckpoint, std::move(op.payload)});
    }
  }
  // Terminate in the same round as the final operation, and free the
  // drained plan: top_unit_ keeps what it performed.
  if (!plan_ || plan_->empty()) {
    a.terminate = true;
    phase_ = Phase::kDone;
    plan_.reset();
  }
  return a;
}

Action CheckpointCore::retire() {
  phase_ = Phase::kDone;
  Action a;
  a.terminate = true;
  return a;
}

std::int64_t CheckpointCore::known_done_units() const {
  const int c = std::min(last_.c, part_.num_subchunks());
  const std::int64_t from_ckpt = c >= 1 ? part_.sub_end(c) : 0;
  return std::max(from_ckpt, top_unit_);
}

ProtocolAProcess::ProtocolAProcess(const DoAllConfig& cfg, int self, Round start_round)
    : core_(cfg, self, start_round),
      // DD(j) = j * (n + 3t): by then processes 0..j-1 have retired (Lemma
      // 2.2; each active process lives < n + 3t rounds, Lemma 2.1).
      deadline_(start_round + Round{static_cast<std::uint64_t>(self)} *
                                  static_cast<std::uint64_t>(cfg.n + 3 * std::int64_t{cfg.t})) {}

Action ProtocolAProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  for (const Msg& msg : inbox) core_.ingest(msg);
  if (core_.active()) return core_.step();
  if (core_.done() || core_.completion_seen()) return core_.retire();
  if (ctx.round < deadline_) return Action::none();
  core_.activate();
  return core_.step();
}

Round ProtocolAProcess::next_wake(const Round& now) const {
  if (core_.done()) return never_round();
  // Active: act every round until the script is drained; a completion
  // notice: wake to retire.
  if (core_.active() || core_.completion_seen()) return now;
  return deadline_ > now ? deadline_ : now;
}

std::string ProtocolAProcess::describe() const {
  return "ProtocolA[" + std::to_string(core_.self()) + "]";
}

}  // namespace dowork
