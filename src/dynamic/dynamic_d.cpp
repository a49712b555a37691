#include "dynamic/dynamic_d.h"

#include <algorithm>
#include <stdexcept>

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

DynamicDProcess::DynamicDProcess(std::shared_ptr<const DynamicConfig> cfg, int self)
    : cfg_(std::move(cfg)),
      loop_(DoAllConfig{cfg_->max_units, cfg_->t}, self, nullptr, nullptr,
            share_bits(DynBitset(static_cast<std::size_t>(cfg_->max_units)))),
      arrived_(static_cast<std::size_t>(cfg_->max_units)),
      seen_(static_cast<std::size_t>(cfg_->t), nullptr) {}

Action DynamicDProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  if (loop_.retired()) return loop_.retired_round(ctx, inbox);
  const std::vector<Arrival>& arrivals = cfg_->arrivals;
  for (; next_arrival_ < arrivals.size() && Round{arrivals[next_arrival_].round} <= ctx.round;
       ++next_arrival_) {
    const Arrival& a = arrivals[next_arrival_];
    if (a.proc == loop_.self())
      for (std::int64_t u : a.units) arrived_.set(static_cast<std::size_t>(u - 1));
  }
  stash_views(inbox, loop_.phase(), seen_, &held_);

  if (!loop_.agreeing()) {
    if (std::optional<Action> a = loop_.work_round(ctx.round)) return std::move(*a);
    loop_.start_agree(ctx.round >= Round{cfg_->horizon}, &arrived_);
    return loop_.broadcast(false);
  }

  // Agreement phase, pipelined and with D's grace (see protocol_d.h).
  const bool over = loop_.receive(fold_views(seen_), loop_.phase() == 1 ? 0 : 1);
  std::fill(seen_.begin(), seen_.end(), nullptr);
  held_.clear();
  if (!over) return loop_.broadcast(false);
  Action a = loop_.broadcast(true);
  loop_.close_agreement();
  // Terminate on agreed facts only: self is outside T, or every participant
  // entered this agreement past the horizon (so no site can be carrying
  // un-gossiped arrivals) and no known unit is outstanding.  Never revert
  // to Protocol A, however many a phase lost: the embedded A works a fixed
  // set of units and would never hear of later arrivals.
  DynBitset open = *loop_.known();
  open &= *loop_.s().base;
  a.terminate = !loop_.t()->test(static_cast<std::size_t>(loop_.self())) ||
                (loop_.view().past_horizon && open.none());
  loop_.end({a.terminate ? PhaseEnd::Kind::kTerminate : PhaseEnd::Kind::kNextPhase, nullptr});
  return a;
}

std::string DynamicDProcess::describe() const {
  return "DynamicD[" + std::to_string(loop_.self()) + ",phase=" + std::to_string(loop_.phase()) +
         "]";
}

DynamicRunResult run_dynamic_do_all(const DynamicConfig& cfg,
                                    std::unique_ptr<FaultInjector> faults,
                                    const RunOptions& opts) {
  cfg.validate();
  const auto schedule = std::make_shared<const DynamicConfig>(cfg);
  // A unit may go unperformed only if its arrival site crashed (the job died).
  auto judge = [schedule](const RunMetrics& m) {
    DynamicRunResult r;
    r.all_known_work_done = true;
    const std::vector<int>& crashed = m.crashed_procs;
    for (const Arrival& a : schedule->arrivals) {
      for (std::int64_t u : a.units) {
        if (m.unit_multiplicity[static_cast<std::size_t>(u - 1)] != 0) continue;
        r.lost_units.push_back(u);
        r.all_known_work_done &= std::find(crashed.begin(), crashed.end(), a.proc) != crashed.end();
      }
    }
    if (!r.all_known_work_done) r.violation = "a unit that arrived at a surviving site was lost";
    return r;
  };
  ProtocolInfo info;
  info.name = "D_dynamic";
  info.strict_one_op = true;
  info.make_proc = [schedule](const DoAllConfig&, int self) {
    return std::make_unique<DynamicDProcess>(schedule, self);
  };
  info.check_outcome = [judge](const RunMetrics& m) { return judge(m).violation; };
  RunResult run = run_do_all(info, DoAllConfig{cfg.max_units, cfg.t}, std::move(faults), opts);
  DynamicRunResult result = judge(run.metrics);
  static_cast<RunResult&>(result) = std::move(run);
  return result;
}

}  // namespace dowork
