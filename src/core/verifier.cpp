#include "core/verifier.h"

namespace dowork {

std::string verify_run(const ProtocolInfo& info, const DoAllConfig& cfg,
                       const RunMetrics& metrics) {
  if (metrics.aborted) return "run aborted: " + metrics.aborted_reason;
  if (metrics.hit_round_cap) return "run hit the stepped-round cap";
  if (metrics.deadlocked) return "run deadlocked: live processes with no timers or messages";
  if (!metrics.all_retired) return "run ended with unretired processes";
  if (static_cast<std::int64_t>(metrics.unit_multiplicity.size()) != cfg.n)
    return "metrics not configured with n units";
  for (std::int64_t u = 0; !info.check_outcome && u < cfg.n; ++u) {
    if (metrics.unit_multiplicity[static_cast<std::size_t>(u)] == 0)
      return "unit " + std::to_string(u + 1) + " was never performed";
  }
  // The sequentiality invariant is a theorem about reliable next-round
  // delivery: a silent worker is a crashed worker, so a successor never
  // overlaps one.  When the network interfered (dropped, severed, or
  // delayed a record -- the net_* counters), that premise is void and
  // overlap is the *expected* cost of weather, so only the completion and
  // unit-coverage requirements above apply.
  const bool weather = metrics.net_dropped || metrics.net_blocked || metrics.net_delayed;
  if (!weather && info.sequential && metrics.max_concurrent_workers > 1)
    return "sequential protocol had " + std::to_string(metrics.max_concurrent_workers) +
           " concurrent workers";
  return info.check_outcome ? info.check_outcome(metrics) : std::string();
}

}  // namespace dowork
