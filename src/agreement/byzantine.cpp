#include "agreement/byzantine.h"

#include <stdexcept>

#include "protocols/protocol_a.h"
#include "protocols/protocol_b.h"
#include "protocols/protocol_c.h"
#include "sim/simulator.h"

namespace dowork {

Round work_protocol_time_bound(const std::string& protocol, const DoAllConfig& cfg) {
  const std::uint64_t n = static_cast<std::uint64_t>(std::max<std::int64_t>(cfg.n, cfg.t));
  const std::uint64_t t = static_cast<std::uint64_t>(cfg.t);
  if (protocol == "A") {
    // Theorem 2.3(c): nt + 3t^2, plus slack for the generalization.
    return Round{(n + 3 * t) * (t + 1) + 4};
  }
  if (protocol == "B") {
    // Theorem 2.8(c): 3n + 8t, generalized slack as in the tests.
    return Round{3 * n + 14 * t + 8 * static_cast<std::uint64_t>(int_sqrt_ceil(cfg.t)) + 64};
  }
  if (protocol == "C") {
    // Theorem 3.8(c): t * K * (n+t) * 2^(n+t).
    ProtocolCProcess probe(cfg, 0);
    return (Round{t} * probe.contact_bound_k() * static_cast<std::uint64_t>(cfg.n + cfg.t))
           << static_cast<unsigned>(cfg.n + cfg.t);
  }
  throw std::invalid_argument("work_protocol_time_bound: unknown protocol " + protocol);
}

namespace {

// Collects decisions (owned by the harness, outlives the simulator).
struct Blackboard {
  std::vector<std::optional<std::int64_t>> decisions;
};

// Wraps a process of the underlying work protocol (senders) or nothing
// (pure receivers), maintaining the current value for the general and
// deciding at the predetermined round.
class ByzantineProcess final : public IProcess {
 public:
  ByzantineProcess(int self, std::int64_t initial_value, std::unique_ptr<IProcess> inner,
                   bool wrap_values, int num_senders, Round decide_at, Blackboard* board)
      : self_(self),
        value_(initial_value),
        inner_(std::move(inner)),
        wrap_values_(wrap_values),
        num_senders_(num_senders),
        decide_at_(decide_at),
        board_(board) {}

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    // Adopt values and strip piggybacks before handing mail to the inner
    // protocol (as records of its own, each addressed to self alone).
    std::vector<DeliveryRecord> inner_mail;
    for (const Msg& msg : inbox) {
      if (const auto* v = msg.as<ValueMsg>()) {
        value_ = v->value;
        continue;
      }
      const auto* pv = msg.as<ValuedPayload>();
      if (pv) value_ = pv->value;
      inner_mail.push_back(DeliveryRecord{msg.from, msg.kind, 1, self_,
                                          pv ? pv->inner : msg.payload(), msg.sent_round()});
    }

    Action out;
    // Round 0: the general broadcasts its value to the senders -- one
    // range-addressed send, so a crash mid-broadcast informs the id prefix
    // of them (the fault injector's choice); the work protocol then spreads
    // whatever survived.
    if (self_ == 0 && ctx.round == Round{0}) {
      if (num_senders_ > 1)
        out.sends.push_back(
            Outgoing{IdRange{1, num_senders_}, MsgKind::kValue, std::make_shared<ValueMsg>(value_)});
      return out;
    }

    if (inner_ && !inner_done_ && ctx.round >= Round{1}) {
      Action a = inner_->on_round(ctx, InboxView(inner_mail, self_, !inner_mail.empty()));
      if (a.terminate) inner_done_ = true;  // the wrapper decides later
      if (a.work) {
        // Performing unit j = informing process j-1 of the current value.
        out.work = a.work;
        out.sends.push_back(Outgoing{static_cast<int>(*a.work - 1), MsgKind::kValue,
                                     std::make_shared<ValueMsg>(value_)});
      }
      for (Outgoing& o : a.sends) {
        // Piggybacking wraps per send -- a broadcast's audience shares one
        // wrapper, exactly as it shares the inner payload.
        if (wrap_values_)
          o.payload = std::make_shared<ValuedPayload>(std::move(o.payload), value_);
        out.sends.push_back(std::move(o));
      }
    }

    if (ctx.round >= decide_at_) {
      board_->decisions[static_cast<std::size_t>(self_)] = value_;
      out.terminate = true;
    }
    return out;
  }

  Round next_wake(const Round& now) const override {
    if (self_ == 0 && now == Round{0}) return now;
    Round w = decide_at_;
    if (inner_ && !inner_done_) {
      Round iw = inner_->next_wake(now);
      if (iw < w) w = iw;
    }
    return w > now ? w : now;
  }

  std::string describe() const override {
    return "Byzantine[" + std::to_string(self_) + (inner_ ? ",sender]" : "]");
  }

 private:
  int self_;
  std::int64_t value_;
  std::unique_ptr<IProcess> inner_;
  bool inner_done_ = false;
  bool wrap_values_;
  int num_senders_;
  Round decide_at_;
  Blackboard* board_;
};

std::unique_ptr<IProcess> make_inner(const std::string& protocol, const DoAllConfig& cfg,
                                     int self) {
  if (protocol == "A") return std::make_unique<ProtocolAProcess>(cfg, self, Round{1});
  if (protocol == "B") return std::make_unique<ProtocolBProcess>(cfg, self, Round{1});
  if (protocol == "C")
    return std::make_unique<ProtocolCProcess>(cfg, self, ProtocolCOptions{}, Round{1});
  throw std::invalid_argument("run_byzantine: unknown protocol " + protocol);
}

}  // namespace

ByzantineResult run_byzantine(const ByzantineConfig& cfg, std::unique_ptr<FaultInjector> faults) {
  if (cfg.n_procs < 1) throw std::invalid_argument("run_byzantine: n_procs >= 1 required");
  if (cfg.t_faults < 0 || cfg.t_faults + 1 > cfg.n_procs)
    throw std::invalid_argument("run_byzantine: need 0 <= t_faults < n_procs");

  const int num_senders = cfg.t_faults + 1;
  // The senders perform n units of work: unit j informs process j-1.
  DoAllConfig work_cfg{cfg.n_procs, num_senders};
  const Round decide_at = Round{1} + work_protocol_time_bound(cfg.protocol, work_cfg) + Round{4};
  const bool wrap = cfg.protocol == "C";

  Blackboard board;
  board.decisions.assign(static_cast<std::size_t>(cfg.n_procs), std::nullopt);

  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < cfg.n_procs; ++i) {
    std::unique_ptr<IProcess> inner =
        i < num_senders ? make_inner(cfg.protocol, work_cfg, i) : nullptr;
    std::int64_t init = (i == 0) ? cfg.value : 0;
    procs.push_back(std::make_unique<ByzantineProcess>(i, init, std::move(inner), wrap,
                                                       num_senders, decide_at, &board));
  }

  Simulator::Options opts;
  opts.strict_one_op = false;  // performing a unit *is* sending a message here
  opts.n_units = cfg.n_procs;
  Simulator sim(std::move(procs), std::move(faults), opts);
  ByzantineResult result;
  result.metrics = sim.run();
  result.decisions = board.decisions;
  result.general_crashed = sim.state_of(0) == ProcState::kCrashed;

  result.agreement = true;
  std::optional<std::int64_t> first;
  for (int i = 0; i < cfg.n_procs; ++i) {
    if (sim.state_of(i) == ProcState::kCrashed) continue;
    const auto& d = result.decisions[static_cast<std::size_t>(i)];
    if (!d) {
      result.agreement = false;  // survivor without a decision
      continue;
    }
    if (!first) first = *d;
    else if (*first != *d) result.agreement = false;
  }
  result.validity = result.general_crashed ||
                    (result.agreement && first && *first == cfg.value);
  return result;
}

}  // namespace dowork
