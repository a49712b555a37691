#include "substrate/differential.h"

#include <cstddef>
#include <stdexcept>

namespace dowork::substrate {

namespace {

std::string diff_u64(const char* field, std::uint64_t a, std::uint64_t b) {
  if (a == b) return "";
  return std::string(field) + ": sim=" + std::to_string(a) + " live=" + std::to_string(b);
}

std::string diff_round(const char* field, const Round& a, const Round& b) {
  if (!(a < b) && !(b < a)) return "";
  return std::string(field) + ": sim=" + a.to_string() + " live=" + b.to_string();
}

template <class T>
std::string show(const T& v) { return std::to_string(v); }
std::string show(const std::optional<std::int64_t>& v) { return v ? std::to_string(*v) : "none"; }

template <class T>
std::string diff_vec(const char* field, const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size())
    return std::string(field) + ".size: sim=" + std::to_string(a.size()) +
           " live=" + std::to_string(b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i])
      return std::string(field) + "[" + std::to_string(i) + "]: sim=" + show(a[i]) +
             " live=" + show(b[i]);
  return "";
}

}  // namespace

std::string compare_metrics(const RunMetrics& sim, const RunMetrics& live) {
  std::string d;
  if (!(d = diff_u64("work_total", sim.work_total, live.work_total)).empty()) return d;
  if (!(d = diff_u64("messages_total", sim.messages_total, live.messages_total)).empty()) return d;
  if (!(d = diff_round("last_retire_round", sim.last_retire_round, live.last_retire_round)).empty())
    return d;
  if (!(d = diff_round("available_processor_steps", sim.available_processor_steps,
                       live.available_processor_steps))
           .empty())
    return d;
  for (std::size_t k = 0; k < sim.messages_by_kind.size(); ++k)
    if (sim.messages_by_kind[k] != live.messages_by_kind[k])
      return "messages_by_kind[" + std::to_string(k) +
             "]: sim=" + std::to_string(sim.messages_by_kind[k]) +
             " live=" + std::to_string(live.messages_by_kind[k]);
  if (!(d = diff_u64("crashes", sim.crashes, live.crashes)).empty()) return d;
  if (!(d = diff_u64("kills.send_commit", sim.kills.send_commit, live.kills.send_commit)).empty())
    return d;
  if (!(d = diff_u64("kills.mid_broadcast", sim.kills.mid_broadcast, live.kills.mid_broadcast))
           .empty())
    return d;
  if (!(d = diff_u64("kills.round_barrier", sim.kills.round_barrier, live.kills.round_barrier))
           .empty())
    return d;
  if (!(d = diff_u64("terminated", sim.terminated, live.terminated)).empty()) return d;
  if (!(d = diff_u64("stepped_rounds", sim.stepped_rounds, live.stepped_rounds)).empty()) return d;
  if (!(d = diff_u64("fast_forward_jumps", sim.fast_forward_jumps, live.fast_forward_jumps))
           .empty())
    return d;
  if (!(d = diff_u64("max_concurrent_workers", sim.max_concurrent_workers,
                     live.max_concurrent_workers))
           .empty())
    return d;
  if (!(d = diff_u64("net_dropped", sim.net_dropped, live.net_dropped)).empty()) return d;
  if (!(d = diff_u64("net_blocked", sim.net_blocked, live.net_blocked)).empty()) return d;
  if (!(d = diff_u64("net_delayed", sim.net_delayed, live.net_delayed)).empty()) return d;
  if (!(d = diff_vec("unit_multiplicity", sim.unit_multiplicity, live.unit_multiplicity)).empty())
    return d;
  if (!(d = diff_vec("work_by_proc", sim.work_by_proc, live.work_by_proc)).empty()) return d;
  if (!(d = diff_vec("messages_by_proc", sim.messages_by_proc, live.messages_by_proc)).empty())
    return d;
  if (!(d = diff_vec("crashed_procs", sim.crashed_procs, live.crashed_procs)).empty()) return d;
  if (!(d = diff_vec("decisions", sim.decisions, live.decisions)).empty()) return d;
  if (sim.all_retired != live.all_retired)
    return std::string("all_retired: sim=") + (sim.all_retired ? "1" : "0") +
           " live=" + (live.all_retired ? "1" : "0");
  if (sim.deadlocked != live.deadlocked)
    return std::string("deadlocked: sim=") + (sim.deadlocked ? "1" : "0") +
           " live=" + (live.deadlocked ? "1" : "0");
  if (sim.hit_round_cap != live.hit_round_cap)
    return std::string("hit_round_cap: sim=") + (sim.hit_round_cap ? "1" : "0") +
           " live=" + (live.hit_round_cap ? "1" : "0");
  if (sim.aborted != live.aborted)
    return std::string("aborted: sim=") + (sim.aborted ? "1" : "0") +
           " live=" + (live.aborted ? "1" : "0") +
           (live.aborted ? " (" + live.aborted_reason + ")" : " (" + sim.aborted_reason + ")");
  return "";
}

DiffResult run_differential(const ProtocolInfo& info, const DoAllConfig& cfg,
                            const InjectorFactory& make_injector, const RunOptions& opts) {
  if (opts.backend == Backend::kSim)
    throw std::invalid_argument("run_differential: the live leg needs Backend::kPool or kSocket");
  DiffResult result;
  RunOptions oracle = opts;
  oracle.backend = Backend::kSim;
  result.sim = run_do_all(info, cfg, make_injector(), oracle);

  RunOptions live = opts;
  live.live.schedule = LiveOptions::Schedule::kDeterministic;
  result.live = run_do_all(info, cfg, make_injector(), live);

  if (!result.sim.ok()) {
    result.divergence = "sim leg failed verification: " + result.sim.violation;
    return result;
  }
  if (!result.live.ok()) {
    result.divergence = "live leg failed verification: " + result.live.violation;
    return result;
  }
  result.divergence = compare_metrics(result.sim.metrics, result.live.metrics);
  return result;
}

DiffResult run_differential(const std::string& protocol, const DoAllConfig& cfg,
                            const InjectorFactory& make_injector, const RunOptions& opts) {
  return run_differential(find_protocol(protocol), cfg, make_injector, opts);
}

}  // namespace dowork::substrate
