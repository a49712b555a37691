#include "sim/metrics.h"

#include <algorithm>
#include <sstream>

namespace dowork {

void KillCensus::count(KillPoint kp) {
  switch (kp) {
    case KillPoint::kSendCommit: ++send_commit; break;
    case KillPoint::kMidBroadcast: ++mid_broadcast; break;
    case KillPoint::kRoundBarrier: ++round_barrier; break;
    case KillPoint::kNone: break;
  }
}

bool RunMetrics::all_units_done() const {
  for (std::uint32_t m : unit_multiplicity)
    if (m == 0) return false;
  return true;
}

std::string RunMetrics::summary() const {
  std::ostringstream os;
  os << "work=" << work_total << " msgs=" << messages_total
     << " effort=" << effort() << " rounds=" << last_retire_round.to_string()
     << " crashes=" << crashes << " done=" << (all_units_done() ? "yes" : "NO")
     << " retired=" << (all_retired ? "yes" : "NO");
  if (aborted) os << " aborted=\"" << aborted_reason << '"';
  return os.str();
}

void MetricsAggregate::absorb(const RunMetrics& m) {
  ++runs;
  max_work = std::max(max_work, m.work_total);
  sum_work += m.work_total;
  max_messages = std::max(max_messages, m.messages_total);
  sum_messages += m.messages_total;
  max_effort = std::max(max_effort, m.effort());
  sum_effort += m.effort();
  max_crashes = std::max(max_crashes, m.crashes);
  sum_crashes += m.crashes;
  if (m.last_retire_round > max_rounds) max_rounds = m.last_retire_round;
  all_ok = all_ok && m.all_retired && m.all_units_done() && !m.aborted;
}

std::string MetricsAggregate::summary() const {
  std::ostringstream os;
  os << "runs=" << runs << " max_work=" << max_work << " max_msgs=" << max_messages
     << " max_effort=" << max_effort << " max_rounds=" << max_rounds.to_string()
     << " ok=" << (all_ok ? "yes" : "NO");
  return os.str();
}

}  // namespace dowork
