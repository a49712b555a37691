#include "dynamic/dynamic_d.h"

#include <algorithm>
#include <stdexcept>

#include "protocols/protocol_d.h"
#include "sim/simulator.h"

namespace dowork {

void DynamicConfig::validate() const {
  if (t < 1) throw std::invalid_argument("DynamicConfig: t >= 1 required");
  if (max_units < 1) throw std::invalid_argument("DynamicConfig: max_units >= 1 required");
  std::vector<bool> seen(static_cast<std::size_t>(max_units), false);
  std::uint64_t prev = 0;
  for (const Arrival& a : arrivals) {
    if (a.round < prev) throw std::invalid_argument("DynamicConfig: arrivals must be sorted");
    prev = a.round;
    if (a.round >= horizon)
      throw std::invalid_argument("DynamicConfig: arrival at/after the horizon");
    if (a.proc < 0 || a.proc >= t) throw std::invalid_argument("DynamicConfig: bad proc");
    for (std::int64_t u : a.units) {
      if (u < 1 || u > max_units) throw std::invalid_argument("DynamicConfig: bad unit id");
      if (seen[static_cast<std::size_t>(u - 1)])
        throw std::invalid_argument("DynamicConfig: duplicate unit id");
      seen[static_cast<std::size_t>(u - 1)] = true;
    }
  }
}

DynamicDProcess::DynamicDProcess(const DynamicConfig& cfg, int self) : cfg_(cfg), self_(self) {
  cfg_.validate();
  known_ = DynBitset(static_cast<std::size_t>(cfg_.max_units));
  done_ = known_;
  agreed_known_ = known_;
  agreed_done_ = known_;
  t_alive_ = DynBitset(static_cast<std::size_t>(cfg_.t), true);
  grace_ = 0;
}

void DynamicDProcess::absorb_arrivals(const Round& now) {
  while (next_arrival_ < cfg_.arrivals.size() &&
         Round{cfg_.arrivals[next_arrival_].round} <= now) {
    const Arrival& a = cfg_.arrivals[next_arrival_];
    if (a.proc == self_)
      for (std::int64_t u : a.units) known_.set(static_cast<std::size_t>(u - 1));
    ++next_arrival_;
  }
}

void DynamicDProcess::enter_work_phase(const Round& now) {
  DynBitset outstanding = agreed_known_;
  outstanding.and_not(agreed_done_);
  // A phase lasts at least one round even with nothing to do, so an idle
  // system keeps cycling through agreements that gossip fresh arrivals.
  const std::int64_t w =
      std::max<std::int64_t>(1, work_slice(outstanding, t_alive_, self_, my_slice_));
  slice_pos_ = 0;
  work_end_ = now + Round{static_cast<std::uint64_t>(w)};
  for (std::int64_t u : my_slice_) done_.set(static_cast<std::size_t>(u - 1));
}

Action DynamicDProcess::agree_broadcast(bool finished) {
  Action a;
  auto payload = std::make_shared<DynAgreeMsg>();
  payload->phase = phase_;
  payload->known = kn_;
  payload->done = dn_;
  payload->t_alive = tn_;
  payload->past_horizon = agree_past_horizon_;
  payload->finished = finished;
  DynBitset bits = u_;
  bits.reset(static_cast<std::size_t>(self_));
  if (bits.any())
    a.sends.push_back(
        Outgoing{make_recipient_bits(std::move(bits)), MsgKind::kAgreement, std::move(payload)});
  return a;
}

void DynamicDProcess::finish_agree() {
  // The agreed view becomes both the working view and the basis for the next
  // phase's (common) slice computation; local arrivals since the broadcast
  // stay in known_ for the next gossip round.
  known_ |= kn_;
  done_ |= dn_;
  agreed_known_ = kn_;
  agreed_done_ = dn_;
  t_alive_ = tn_;
  if (!t_alive_.test(static_cast<std::size_t>(self_))) {
    terminated_ = true;
    phase_kind_ = PhaseKind::kFinished;
    return;
  }
  // Terminate on agreed facts only: every participant entered this agreement
  // past the horizon (so no site can be carrying un-gossiped arrivals) and
  // the agreed known set is fully done.
  if (agree_past_horizon_ && agreed_known_ == agreed_done_) {
    terminated_ = true;
    phase_kind_ = PhaseKind::kFinished;
    return;
  }
  ++phase_;
  grace_ = 1;
  phase_kind_ = PhaseKind::kWork;
  work_entered_ = false;
  seen_.clear();
}

Action DynamicDProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (terminated_) {
    Action a;
    a.terminate = true;
    return a;
  }
  absorb_arrivals(ctx.round);
  for (const Msg& msg : inbox) {
    if (const auto* m = msg.as<DynAgreeMsg>(); m != nullptr && m->phase == phase_)
      seen_[msg.from] = std::static_pointer_cast<const DynAgreeMsg>(msg.payload());
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
    phase_kind_ = PhaseKind::kAgree;
    u_ = t_alive_;
    tn_ = DynBitset(static_cast<std::size_t>(cfg_.t));
    tn_.set(static_cast<std::size_t>(self_));
    kn_ = known_;
    dn_ = done_;
    agree_past_horizon_ = ctx.round >= Round{cfg_.horizon};
    iter_ = 0;
    return agree_broadcast(false);
  }

  // Agreement phase (pipelined as in Protocol D; see protocol_d.h).
  bool adopted = false;
  for (const auto& [i, msg] : seen_) {
    if (msg->finished) {
      kn_ = msg->known;
      dn_ = msg->done;
      tn_ = msg->t_alive;
      agree_past_horizon_ = msg->past_horizon;
      adopted = true;
      break;
    }
  }
  bool removed_any = false;
  if (!adopted) {
    DynBitset heard(static_cast<std::size_t>(cfg_.t));
    for (const auto& [i, msg] : seen_) {
      heard.set(static_cast<std::size_t>(i));
      kn_ |= msg->known;
      dn_ |= msg->done;
      tn_ |= msg->t_alive;
      agree_past_horizon_ = agree_past_horizon_ && msg->past_horizon;
    }
    if (iter_ >= grace_) removed_any = drop_silent(u_, heard, self_);
  }
  seen_.clear();
  const bool stable = !removed_any && iter_ >= grace_;
  ++iter_;

  if (adopted || stable) {
    Action a = agree_broadcast(true);
    finish_agree();
    if (terminated_) a.terminate = true;
    return a;
  }
  return agree_broadcast(false);
}

Round DynamicDProcess::next_wake(const Round& now) const {
  if (terminated_) return never_round();
  switch (phase_kind_) {
    case PhaseKind::kWork:
      if (!work_entered_ || slice_pos_ < my_slice_.size()) return now;
      return work_end_ > now ? work_end_ : now;
    case PhaseKind::kAgree:
      return now;
    case PhaseKind::kFinished:
      return now;
  }
  return never_round();
}

std::string DynamicDProcess::describe() const {
  return "DynamicD[" + std::to_string(self_) + ",phase=" + std::to_string(phase_) + "]";
}

DynamicRunResult run_dynamic_do_all(const DynamicConfig& cfg,
                                    std::unique_ptr<FaultInjector> faults) {
  cfg.validate();
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < cfg.t; ++i) procs.push_back(std::make_unique<DynamicDProcess>(cfg, i));
  Simulator::Options opts;
  opts.strict_one_op = true;
  opts.n_units = cfg.max_units;
  Simulator sim(std::move(procs), std::move(faults), opts);

  DynamicRunResult result;
  result.metrics = sim.run();

  // A unit may legitimately go unperformed only if its arrival site crashed
  // (the job died with the workstation).
  result.all_known_work_done = true;
  for (const Arrival& a : cfg.arrivals) {
    for (std::int64_t u : a.units) {
      if (result.metrics.unit_multiplicity[static_cast<std::size_t>(u - 1)] == 0) {
        result.lost_units.push_back(u);
        if (sim.state_of(a.proc) != ProcState::kCrashed) result.all_known_work_done = false;
      }
    }
  }
  return result;
}

}  // namespace dowork
