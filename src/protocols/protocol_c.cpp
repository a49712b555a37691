#include "protocols/protocol_c.h"

#include <algorithm>
#include <stdexcept>

namespace dowork {

LevelTree::LevelTree(int t_real) : t_real_(t_real) {
  if (t_real < 1) throw std::invalid_argument("LevelTree: t must be >= 1");
  T_ = pow2_ceil(t_real);
  L_ = log2_of_pow2(T_);
}

void ViewC::merge(const ViewC& other) {
  for (std::size_t i = 0; i < retired.size(); ++i) retired[i] |= other.retired[i];
  if (other.round0 > round0 || (other.round0 == round0 && other.point0 > point0)) {
    round0 = other.round0;
    point0 = other.point0;
  }
  for (std::size_t g = 0; g < point.size(); ++g) {
    if (other.round[g] > round[g]) {
      round[g] = other.round[g];
      point[g] = other.point[g];
    }
  }
}

std::int64_t ViewC::reduced(int t_real) const {
  std::int64_t failures = 0;
  for (int i = 0; i < t_real; ++i) failures += retired[static_cast<std::size_t>(i)];
  return point0 - 1 + failures;
}

ProtocolCProcess::ProtocolCProcess(const DoAllConfig& cfg, int self, ProtocolCOptions options,
                                   Round start_round)
    : tree_(cfg.t), n_(cfg.n), t_(cfg.t), self_(self), opt_(options), start_round_(start_round) {
  cfg.validate();
  batch_size_ = opt_.batch_reports ? std::max<std::int64_t>(1, ceil_div(n_, t_)) : 1;

  // K bounds the rounds until every non-retired process has heard from a
  // newly active process: fault detection costs <= 2(T + L) poll rounds plus
  // <= T report rounds; a full report cycle through G1 costs T reports,
  // batch_size_ work rounds apart (Lemma 3.2; Corollary 3.9 notes K grows
  // with the batch size).
  const std::uint64_t T = static_cast<std::uint64_t>(tree_.padded());
  const std::uint64_t L = static_cast<std::uint64_t>(tree_.levels());
  k_ = 3 * T + 2 * L + T * static_cast<std::uint64_t>(batch_size_ + 1) + 8;

  const int T_int = tree_.padded();
  view_.retired.assign(static_cast<std::size_t>(T_int), 0);
  for (int i = t_; i < T_int; ++i) view_.retired[static_cast<std::size_t>(i)] = 1;
  view_.point0 = 1;
  view_.point.assign(static_cast<std::size_t>(tree_.num_groups()), 0);
  view_.round.assign(static_cast<std::size_t>(tree_.num_groups()), 0);
  for (int h = 1; h <= tree_.levels(); ++h) {
    int sz = tree_.group_size(h);
    for (int base = 0; base < T_int; base += sz) {
      int idx = (1 << (h - 1)) - 1 + base / sz;
      // Lowest-numbered member other than self.
      view_.point[static_cast<std::size_t>(idx)] = (base == self_) ? base + 1 : base;
    }
  }

  try {
    wake_ = start_round_ + deadline_for(0);
    (void)deadline_for(1);  // also exercise the m >= 1 branch
  } catch (const std::overflow_error&) {
    throw std::invalid_argument(
        "ProtocolC: n + t too large for 512-bit deadlines (need n + t <~ 460); got n=" +
        std::to_string(n_) + " t=" + std::to_string(t_));
  }
}

Round ProtocolCProcess::deadline_for(std::int64_t m) const {
  const std::int64_t NT = n_ + t_;
  m = std::clamp<std::int64_t>(m, 0, NT - 1);
  if (!opt_.fault_detection) {
    // Naive-C ablation: same exponential skeleton (gaps must swallow whole
    // execution suffixes) with base-4 growth and an id tie-break, since
    // without the paper's knowledge total-order there is no proof that
    // reduced views are distinct.
    unsigned e = static_cast<unsigned>(2 * (NT - m));
    Round d = (Round{k_} * static_cast<std::uint64_t>(NT - m + 1)) << e;
    return d + Round{k_} * (2 * static_cast<std::uint64_t>(t_ - 1 - self_));
  }
  if (m == 0) {
    // Never heard anything: D(i, 0) = K (t - i) (n+t) 2^(n+t-1); the highest
    // numbered zero-knowledge process takes over first.
    return (Round{k_} * static_cast<std::uint64_t>(t_ - self_) *
            static_cast<std::uint64_t>(NT))
           << static_cast<unsigned>(NT - 1);
  }
  return (Round{k_} * static_cast<std::uint64_t>(NT - m)) << static_cast<unsigned>(NT - 1 - m);
}

std::optional<int> ProtocolCProcess::first_valid(int h, int start) const {
  const int base = tree_.group_base(h, self_);
  const int sz = tree_.group_size(h);
  if (start < base || start >= base + sz) start = base;
  for (int k = 0; k < sz; ++k) {
    int c = base + (start - base + k) % sz;
    if (c != self_ && !view_.retired[static_cast<std::size_t>(c)]) return c;
  }
  return std::nullopt;
}

std::optional<int> ProtocolCProcess::normalize_pointer(int h) {
  const int idx = tree_.group_index(h, self_);
  auto v = first_valid(h, view_.point[static_cast<std::size_t>(idx)]);
  if (v) view_.point[static_cast<std::size_t>(idx)] = *v;
  return v;
}

std::vector<Outgoing> ProtocolCProcess::report_to_level(int h, std::uint64_t stamp) {
  const int idx = tree_.group_index(h, self_);
  auto target = first_valid(h, view_.point[static_cast<std::size_t>(idx)]);
  if (!target) return {};
  // The recipient learns of its own receipt, so the snapshot records this
  // very send: round = this round, point = the target's successor.
  view_.round[static_cast<std::size_t>(idx)] = stamp;
  const int base = tree_.group_base(h, self_);
  const int sz = tree_.group_size(h);
  auto succ = first_valid(h, base + (*target - base + 1) % sz);
  view_.point[static_cast<std::size_t>(idx)] = succ.value_or(*target);
  auto payload = std::make_shared<OrdinaryC>(view_);
  return {Outgoing{*target, MsgKind::kOrdinary, payload}};
}

Action ProtocolCProcess::finish(Action a) {
  a.terminate = true;
  state_ = State::kDone;
  return a;
}

Action ProtocolCProcess::active_step(const RoundContext& ctx, const InboxView& inbox) {
  const Round& r = ctx.round;

  // Resolve an outstanding "Are you alive?".
  if (await_) {
    if (r < await_->due) return Action::none();
    const int target = await_->target;
    bool replied = false;
    for (const Msg& msg : inbox)
      if (msg.kind == MsgKind::kPollReply && msg.from == target) replied = true;
    await_.reset();
    if (!replied) {
      view_.retired[static_cast<std::size_t>(target)] = 1;
      if (h_ != tree_.levels()) {
        // Report the newly detected failure one level up (Figure 3 line 9).
        std::vector<Outgoing> sends = report_to_level(h_ + 1, ctx.stepped_index);
        if (!sends.empty()) {
          Action a;
          a.sends = std::move(sends);
          return a;  // level decision resumes next round
        }
      }
      // No report possible/needed; fall through and keep polling this level.
    } else {
      --h_;  // found a live member; leave the level
    }
  }

  // Fault-detection levels, top (smallest groups) down.
  while (h_ >= 1) {
    auto target = normalize_pointer(h_);
    if (!target) {
      --h_;  // everyone else in this group is known retired
      continue;
    }
    Action a;
    a.sends.push_back(Outgoing{*target, MsgKind::kPoll, std::make_shared<PollC>()});
    await_ = AwaitReply{*target, r + Round{2}};
    return a;
  }

  // Level 0: the real work, reported into the level-1 group.
  if (report_due_) {
    report_due_ = false;
    since_report_ = 0;
    std::vector<Outgoing> sends =
        tree_.levels() >= 1 ? report_to_level(1, ctx.stepped_index) : std::vector<Outgoing>{};
    Action a;
    a.sends = std::move(sends);
    if (view_.point0 > n_) return finish(std::move(a));  // final report; halt
    if (!a.sends.empty()) return a;
    // No live target to tell: keep working this same round.
  }
  if (view_.point0 <= n_) {
    Action a;
    a.work = view_.point0;
    view_.round0 = ctx.stepped_index;
    ++view_.point0;
    ++since_report_;
    if (since_report_ >= batch_size_ || view_.point0 > n_) report_due_ = true;
    return a;
  }
  return finish(Action{});
}

Action ProtocolCProcess::on_round(const RoundContext& ctx, const InboxView& inbox) {
  // Poll replies are sent by active and inactive processes alike and are
  // exempt from the one-op-per-round rule.
  std::vector<Outgoing> replies;
  for (const Msg& msg : inbox)
    if (msg.kind == MsgKind::kPoll)
      replies.push_back(Outgoing{msg.from, MsgKind::kPollReply, std::make_shared<PollReplyC>()});

  if (state_ == State::kDone) {
    Action a;
    a.terminate = true;
    return a;
  }

  if (state_ == State::kPassive) {
    bool got_ordinary = false;
    for (const Msg& msg : inbox) {
      if (const auto* o = msg.as<OrdinaryC>()) {
        view_.merge(o->view);
        got_ordinary = true;
      }
    }
    if (got_ordinary) {
      // Deadline restarts from this receipt (Section 3.1).
      std::int64_t m = std::max<std::int64_t>(1, view_.reduced(t_));
      wake_ = ctx.round + deadline_for(m);
      Action a;
      a.sends = std::move(replies);
      return a;
    }
    if (ctx.round >= wake_) {
      state_ = State::kActive;
      h_ = opt_.fault_detection ? tree_.levels() : 0;
      await_.reset();
      since_report_ = 0;
      report_due_ = false;
      Action a = active_step(ctx, inbox);
      for (Outgoing& o : replies) a.sends.push_back(std::move(o));
      return a;
    }
    Action a;
    a.sends = std::move(replies);
    return a;
  }

  Action a = active_step(ctx, inbox);
  for (Outgoing& o : replies) a.sends.push_back(std::move(o));
  return a;
}

Round ProtocolCProcess::next_wake(const Round& now) const {
  switch (state_) {
    case State::kPassive:
      return wake_ > now ? wake_ : now;
    case State::kActive:
      if (await_ && await_->due > now) return await_->due;
      return now;
    case State::kDone:
      return never_round();
  }
  return never_round();
}

std::string ProtocolCProcess::describe() const {
  return std::string(opt_.fault_detection ? "ProtocolC[" : "NaiveC[") + std::to_string(self_) +
         (opt_.batch_reports ? ",batch]" : "]");
}

}  // namespace dowork
