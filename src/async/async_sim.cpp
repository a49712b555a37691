#include "async/async_sim.h"

namespace dowork {

AsyncSim::AsyncSim(std::vector<std::unique_ptr<IAsyncProcess>> procs, Options options,
                   std::unique_ptr<FaultInjector> faults)
    : procs_(std::move(procs)),
      opt_(options),
      faults_(std::move(faults)),
      rng_(options.seed),
      net_model_([&] {
        // Latency normalization: an unset latency component means the
        // historical [min_delay, max_delay] draw, so the model always owns
        // the delay and a default NetSpec reproduces the old event stream
        // exactly (same rng_, same uniform bounds, same draw order).
        NetSpec n = options.net;
        if (n.lat_max == 0) {
          n.lat_min = options.min_delay;
          n.lat_max = options.max_delay;
        }
        return n;
      }()) {
  const std::size_t t = procs_.size();
  retired_.assign(t, false);
  alive_ = static_cast<int>(t);
  metrics_.unit_multiplicity.assign(static_cast<std::size_t>(opt_.n_units), 0);
}

void AsyncSim::schedule(ATime time, int target, AsyncEvent event) {
  queue_.push(QueuedEvent{time, seq_++, target, std::move(event)});
}

void AsyncSim::retire(int proc, ATime now, bool crashed) {
  if (retired_[static_cast<std::size_t>(proc)]) return;
  retired_[static_cast<std::size_t>(proc)] = true;
  --alive_;
  if (crashed) ++metrics_.crashes;
  // The failure detector eventually informs every live process, each after
  // its own (adversarial) latency.
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    if (retired_[p]) continue;
    AsyncEvent e;
    e.kind = AsyncEvent::Kind::kRetireNotice;
    e.retired_proc = proc;
    schedule(now + rng_.uniform(1, opt_.fd_max_delay), static_cast<int>(p), std::move(e));
    ++metrics_.fd_notices;
  }
}

AsyncMetrics AsyncSim::run() {
  for (std::size_t p = 0; p < procs_.size(); ++p)
    schedule(0, static_cast<int>(p), AsyncEvent{});  // kStart

  std::uint64_t events = 0;
  while (!queue_.empty() && alive_ > 0) {
    if (++events > opt_.max_events) break;
    QueuedEvent qe = queue_.top();
    queue_.pop();
    const std::size_t p = static_cast<std::size_t>(qe.target);
    if (retired_[p]) continue;

    const AsyncAction step = procs_[p]->on_event(qe.time, qe.event);
    const Action& a = step.action;

    // A terminate-only action (a passive process retiring on completion) is
    // never inspected, so it takes no (process, k-th action) ordinal.
    std::optional<CrashPlan> crash;
    if (a.work || !a.sends.empty()) {
      crash = faults_->inspect(static_cast<int>(p), Round{qe.time}, a,
                               SimSnapshot{static_cast<int>(procs_.size()), alive_,
                                           static_cast<int>(metrics_.crashes)});
      if (crash && alive_ <= 1) crash.reset();  // the last survivor never crashes
    }

    if (a.work && (!crash || crash->work_completes)) {
      ++metrics_.work_total;
      if (*a.work >= 1 && *a.work <= opt_.n_units)
        ++metrics_.unit_multiplicity[static_cast<std::size_t>(*a.work - 1)];
    }
    // deliver_prefix indexes the flattened message sequence (sends in
    // vector order, each audience in ascending id order), matching the
    // synchronous simulator's prefix-cut semantics; per-message delays are
    // drawn in that same order for live recipients only.
    std::size_t total = 0;
    for (const Outgoing& o : a.sends) total += o.to.size();
    const std::size_t deliver = crash ? std::min(crash->deliver_prefix, total) : total;
    std::size_t remaining = deliver;
    for (const Outgoing& o : a.sends) {
      if (remaining == 0) break;
      const std::size_t cut = std::min(o.to.size(), remaining);
      remaining -= cut;
      metrics_.messages_total += cut;
      o.to.for_each_prefix(cut, [&](int to) {
        if (to >= 0 && to < static_cast<int>(procs_.size()) &&
            !retired_[static_cast<std::size_t>(to)]) {
          // Network weather, in the model's fixed decision order: partition
          // (deterministic, no draw), then loss (one draw per surviving
          // link), then the per-link latency draw.  Absent components cost
          // zero draws, so the crash-only stream is untouched.
          if (net_model_.has_partitions() &&
              net_model_.severed(static_cast<int>(p), to, qe.time)) {
            ++metrics_.net_blocked;
            return;
          }
          if (net_model_.has_drop() && net_model_.drops(rng_)) {
            ++metrics_.net_dropped;
            return;
          }
          AsyncEvent e;
          e.kind = AsyncEvent::Kind::kMessage;
          e.from = static_cast<int>(p);
          e.msg_kind = o.kind;
          e.payload = o.payload;
          schedule(qe.time + net_model_.delay(rng_), to, std::move(e));
        }
      });
    }

    if (crash) {
      retire(static_cast<int>(p), qe.time, /*crashed=*/true);
    } else if (a.terminate) {
      retire(static_cast<int>(p), qe.time, /*crashed=*/false);
    } else if (step.timer) {
      AsyncEvent e;
      e.kind = AsyncEvent::Kind::kTimer;
      schedule(qe.time + *step.timer, static_cast<int>(p), std::move(e));
    }
    metrics_.end_time = qe.time;
  }
  metrics_.all_retired = alive_ == 0;
  return metrics_;
}

}  // namespace dowork
