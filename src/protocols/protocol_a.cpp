#include "protocols/protocol_a.h"

#include <algorithm>

namespace dowork {

ActivePlan::ActivePlan(const GroupLayout& layout, const WorkPartition& part, int self,
                       const LastCheckpoint& last, const std::vector<std::int64_t>* unit_map)
    : layout_(layout), part_(part), self_(self), unit_map_(unit_map) {
  gj_ = layout_.group_of(self_);
  own_rest_ =
      IdRange{std::max(layout_.first_of_group(gj_), self_ + 1), layout_.end_of_group(gj_)};

  // The resume section (Figure 1, DoWork lines 1-9) is O(groups): build it
  // eagerly.  An empty broadcast conveys nothing and the paper does not
  // charge a round for it, so empty recipient ranges emit no op.
  auto push_broadcast = [&](IdRange recipients, std::shared_ptr<const Payload> payload) {
    if (recipients.empty()) return;
    prefix_.push_back(ActiveOp{std::nullopt, recipients, std::move(payload)});
  };
  // Partialcheckpoint(c): inform the remainder of the own group.
  auto partial_ckpt = [&](int c) { push_broadcast(own_rest_, std::make_shared<CkptPartial>(c)); };
  // Fullcheckpoint(c, l): for each group g = l..G-1, inform group g and then
  // checkpoint that fact to the remainder of the own group.
  auto full_ckpt = [&](int c, int from_g) {
    for (int g = from_g; g < layout_.num_groups(); ++g) {
      push_broadcast(IdRange{layout_.first_of_group(g), layout_.end_of_group(g)},
                     std::make_shared<CkptFull>(c, g));
      push_broadcast(own_rest_, std::make_shared<CkptFull>(c, g));
    }
  };
  if (!last.fictitious) {
    if (last.g.has_value()) {
      if (layout_.group_of(last.from) != gj_) {
        // Direct full checkpoint (c, g_j) from an earlier group: complete the
        // partial checkpoint, then the full checkpoint from the next group.
        partial_ckpt(last.c);
        full_ckpt(last.c, gj_ + 1);
      } else {
        // Echo (c, g) with g > g_j from a group mate: make sure the own group
        // knows group g was informed, then continue from group g+1.
        push_broadcast(own_rest_, std::make_shared<CkptFull>(last.c, *last.g));
        full_ckpt(last.c, *last.g + 1);
      }
    } else {
      // Partial checkpoint (c): complete it; if c closed a chunk, the full
      // checkpoint may also have been cut short -- redo it.
      partial_ckpt(last.c);
      if (part_.is_chunk_boundary(last.c)) full_ckpt(last.c, gj_ + 1);
    }
  }

  // Position the lazy main loop (lines 10-14) at subchunk last.c + 1 and
  // prime the lookahead.
  c_ = last.c;
  advance_subchunk();
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
          const std::int64_t unit =
              unit_map_ ? (*unit_map_)[static_cast<std::size_t>(u_ - 1)] : u_;
          ++u_;
          *out = ActiveOp{unit, {}, nullptr};
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
  if (prefix_pos_ < prefix_.size()) return std::move(prefix_[prefix_pos_++]);
  ActiveOp out = std::move(*next_);
  next_.reset();
  ActiveOp refill;
  if (produce(&refill)) next_ = std::move(refill);
  return out;
}

std::deque<ActiveOp> build_active_plan(const GroupLayout& layout, const WorkPartition& part,
                                       int self, const LastCheckpoint& last,
                                       const std::vector<std::int64_t>* unit_map) {
  ActivePlan cursor(layout, part, self, last, unit_map);
  std::deque<ActiveOp> plan;
  while (!cursor.empty()) plan.push_back(cursor.pop());
  return plan;
}

CheckpointCore::CheckpointCore(const DoAllConfig& cfg, int self, const Round& start_round,
                               std::vector<std::int64_t> unit_map)
    : layout_(GroupLayout::for_sqrt(cfg.t)),
      self_(self),
      part_(WorkPartition::for_protocol_a(cfg.n, cfg.t)),
      unit_map_(unit_map.empty() ? nullptr
                                 : std::make_unique<const std::vector<std::int64_t>>(
                                       std::move(unit_map))),
      last_{0, layout_.group_of(self), 0, start_round, true} {
  cfg.validate();
}

bool CheckpointCore::ingest(const Payload* payload, int from, const Round& received_round) {
  const int last_sub = part_.num_subchunks();
  if (const auto* p = detail::payload_as<CkptPartial>(payload)) {
    if (p->c == last_sub) completion_seen_ = true;
    last_ = LastCheckpoint{p->c, std::nullopt, from, received_round, false};
    return true;
  }
  if (const auto* f = detail::payload_as<CkptFull>(payload)) {
    // Only the direct form addressed to our group; an echo (t, g) names a
    // higher group and tells a group mate nothing final.
    if (f->c == last_sub && f->g == layout_.group_of(self_)) completion_seen_ = true;
    last_ = LastCheckpoint{f->c, f->g, from, received_round, false};
    return true;
  }
  return false;
}

void CheckpointCore::activate() {
  phase_ = Phase::kActive;
  plan_ = std::make_unique<ActivePlan>(layout_, part_, self_, last_, unit_map_.get());
}

Action CheckpointCore::step() {
  Action a;
  if (plan_ && !plan_->empty()) {
    ActiveOp op = plan_->pop();
    if (op.work) {
      a.work = op.work;
      if (!unit_map_ && *op.work > top_unit_) top_unit_ = *op.work;
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
  if (unit_map_) return 0;  // virtual ids; the D wrapper answers
  const int c = std::min(last_.c, part_.num_subchunks());
  const std::int64_t from_ckpt = c >= 1 ? part_.sub_end(c) : 0;
  return std::max(from_ckpt, top_unit_);
}

ProtocolAProcess::ProtocolAProcess(const DoAllConfig& cfg, int self, Round start_round,
                                   std::vector<std::int64_t> unit_map)
    : core_(cfg, self, start_round, std::move(unit_map)),
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
