#include "protocols/protocol_b.h"

#include <algorithm>

namespace dowork {

ProtocolBProcess::ProtocolBProcess(const DoAllConfig& cfg, int self, Round start_round)
    // The core starts from the paper's convention: a fictitious ordinary
    // message (0, g_j) from process 0 at the start round seeds every timeout.
    : core_(cfg, self, start_round),
      // PTO - 1 bounds the silence a process can see from an active process
      // in its own group: one subchunk of work (<= ceil(n/t) rounds) plus
      // the partial-checkpoint round plus delivery.
      pto_(static_cast<std::uint64_t>(ceil_div(cfg.n, cfg.t)) + 2),
      // Process 0 is active from the start.
      deadline_(self == 0 ? start_round : passive_deadline()) {}

std::uint64_t ProtocolBProcess::gto(int i) const {
  // GTO(i) - 1 bounds the silence before a higher group hears from group g_i
  // while any process >= i there is active: one chunk of work, its partial
  // checkpoints, and the per-process takeover probes.
  const GroupLayout& layout = core_.layout();
  const std::uint64_t s = static_cast<std::uint64_t>(layout.group_size());
  const std::uint64_t chunk_work = s * (pto_ - 2);  // s subchunks of ceil(n/t)
  const std::uint64_t ibar = static_cast<std::uint64_t>(layout.pos_in_group(i));
  return chunk_work + 3 * s + (s - ibar - 1) * pto_ + 1;
}

std::uint64_t ProtocolBProcess::ddb(int i) const {
  const int gi = core_.layout().group_of(i);
  const int gj = core_.layout().group_of(core_.self());
  if (gi == gj) return pto_;
  return gto(i) + static_cast<std::uint64_t>(gj - gi - 1) * gto(0);
}

Round ProtocolBProcess::passive_deadline() const {
  return core_.last().received_round + Round{ddb(core_.last().from)};
}

Round ProtocolBProcess::probe_due() const {
  // next_probe_ never passes the target count, so once every probe is out
  // this is the activation round.
  return preactive_start_ + Round{pto_} * static_cast<std::uint64_t>(next_probe_);
}

void ProtocolBProcess::enter_preactive(const Round& now) {
  preactive_ = true;
  preactive_start_ = now;
  next_probe_ = 0;
  // Probe the lower-numbered group members that might still be alive: all of
  // them if the last ordinary message came from another group, only those
  // above the (known retired) sender otherwise.  Process 0's fictitious
  // sender is itself, which leaves it no one to probe.
  const GroupLayout& layout = core_.layout();
  const int self = core_.self();
  const int from = core_.last().from;
  const int gj = layout.group_of(self);
  const int first = layout.group_of(from) == gj ? from + 1 : layout.first_of_group(gj);
  first_probe_ = std::min(first, self);
}

Action ProtocolBProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  bool go_ahead = false;
  bool ingested = false;
  for (const Msg& msg : inbox) {
    // The kind test first: every GoAhead is sent as kGoAhead, and it spares
    // each checkpoint the out-of-line type_info comparison a mismatched
    // as<> pays.
    if (msg.kind == MsgKind::kGoAhead && msg.as<GoAhead>()) {
      go_ahead = true;
    } else if (core_.ingest(msg)) {
      preactive_ = false;  // a checkpoint: someone is alive below us
      ingested = true;
    }
  }
  if (ingested && core_.self() != 0) deadline_ = passive_deadline();
  if (core_.active()) return core_.step();
  // Passive/preactive: a completion notice retires us immediately.
  if (core_.done() || core_.completion_seen()) return core_.retire();

  // A go-ahead makes us active on the spot, provided we do not already know
  // the last subchunk finished (c = t means only the tail of a full
  // checkpoint remains; the prober will time out and finish it itself).
  if (go_ahead && core_.last().c < core_.part().num_subchunks()) {
    core_.activate();
    return core_.step();
  }
  if (!preactive_) {
    if (ctx.round < deadline_) return Action::none();
    enter_preactive(ctx.round);  // then emit the first probe (or activate if none needed)
  }
  // Preactive probing: go-aheads PTO rounds apart; once every target has
  // been probed and a further PTO of silence passed, become active.
  const int probes = core_.self() - first_probe_;
  if (ctx.round >= preactive_start_ + Round{pto_} * static_cast<std::uint64_t>(probes)) {
    core_.activate();
    return core_.step();
  }
  if (next_probe_ >= probes || ctx.round < probe_due()) return Action::none();
  Action a;
  a.sends.push_back(
      Outgoing{first_probe_ + next_probe_, MsgKind::kGoAhead, std::make_shared<GoAhead>()});
  ++next_probe_;
  return a;
}

Round ProtocolBProcess::next_wake(const Round& now) const {
  if (core_.done()) return never_round();
  if (core_.active() || (!preactive_ && core_.completion_seen())) return now;
  if (!preactive_) return deadline_ > now ? deadline_ : now;
  const Round due = probe_due();
  return due > now ? due : now;
}

std::string ProtocolBProcess::describe() const {
  return "ProtocolB[" + std::to_string(core_.self()) + "]";
}

}  // namespace dowork
