#include "agreement/byzantine.h"

#include <algorithm>
#include <stdexcept>

#include "protocols/protocol_a.h"
#include "protocols/protocol_b.h"
#include "protocols/protocol_c.h"

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

// Wraps a process of the underlying work protocol (senders) or nothing
// (pure receivers), maintaining the current value for the general and
// deciding at the predetermined round.
class ByzantineProcess final : public IProcess {
 public:
  ByzantineProcess(int self, std::int64_t initial_value, std::unique_ptr<IProcess> inner,
                   bool wrap_values, int num_senders, Round decide_at)
      : self_(self),
        value_(initial_value),
        inner_(std::move(inner)),
        wrap_values_(wrap_values),
        num_senders_(num_senders),
        decide_at_(decide_at) {}

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
      decision_ = value_;
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

  std::optional<std::int64_t> decision() const override { return decision_; }

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
  std::optional<std::int64_t> decision_;
};

std::unique_ptr<IProcess> make_inner(const std::string& protocol, const DoAllConfig& cfg,
                                     int self) {
  if (protocol == "A") return std::make_unique<ProtocolAProcess>(cfg, self, Round{1});
  if (protocol == "B") return std::make_unique<ProtocolBProcess>(cfg, self, Round{1});
  if (protocol == "C")
    return std::make_unique<ProtocolCProcess>(cfg, self, ProtocolCOptions{}, Round{1});
  throw std::invalid_argument("run_byzantine: unknown protocol " + protocol);
}

// A process either crashes or decides at its terminate commit, so agreement
// holds iff every process that did not crash decided v, the largest decision
// (nullopt sorts first).  `violation` names a failed verdict.
ByzantineResult judge(const RunMetrics& m, const ByzantineConfig& cfg) {
  ByzantineResult r;
  r.decisions = m.decisions;
  r.decisions.resize(static_cast<std::size_t>(cfg.n_procs));
  const std::vector<int>& crashed = m.crashed_procs;
  r.general_crashed = std::find(crashed.begin(), crashed.end(), 0) != crashed.end();
  const std::optional<std::int64_t> v = *std::max_element(r.decisions.begin(), r.decisions.end());
  r.agreement = v && std::count(r.decisions.begin(), r.decisions.end(), v) +
                             static_cast<std::ptrdiff_t>(crashed.size()) == cfg.n_procs;
  r.validity = r.general_crashed || (r.agreement && v == cfg.value);
  if (!r.agreement) r.violation = "byzantine agreement violated";
  else if (!r.validity) r.violation = "byzantine validity violated";
  return r;
}

}  // namespace

ByzantineResult run_byzantine(const ByzantineConfig& cfg, std::unique_ptr<FaultInjector> faults,
                              const RunOptions& opts) {
  if (cfg.n_procs < 1) throw std::invalid_argument("run_byzantine: n_procs >= 1 required");
  if (cfg.t_faults < 0 || cfg.t_faults + 1 > cfg.n_procs)
    throw std::invalid_argument("run_byzantine: need 0 <= t_faults < n_procs");
  if (cfg.value == 0)  // everyone starts at 0: validity would hold without the general
    throw std::invalid_argument("run_byzantine: value must be != 0");

  const int num_senders = cfg.t_faults + 1;
  // The senders perform n units of work: unit j informs process j-1.
  DoAllConfig work_cfg{cfg.n_procs, num_senders};
  const Round decide_at = Round{1} + work_protocol_time_bound(cfg.protocol, work_cfg) + Round{4};

  ProtocolInfo info;
  info.name = "byzantine/" + cfg.protocol;
  info.sequential = true;  // only the senders work, and they run A, B or C
  info.strict_one_op = false;  // performing a unit *is* sending a message here
  info.make_proc = [cfg, work_cfg, num_senders, decide_at](const DoAllConfig&, int self) {
    return std::make_unique<ByzantineProcess>(
        self, self == 0 ? cfg.value : 0,
        self < num_senders ? make_inner(cfg.protocol, work_cfg, self) : nullptr,
        cfg.protocol == "C", num_senders, decide_at);
  };
  info.check_outcome = [cfg](const RunMetrics& m) { return judge(m, cfg).violation; };
  RunResult run = run_do_all(info, DoAllConfig{cfg.n_procs, cfg.n_procs}, std::move(faults), opts);
  ByzantineResult result = judge(run.metrics, cfg);
  static_cast<RunResult&>(result) = std::move(run);
  return result;
}

}  // namespace dowork
