#include "sim/fault_injector.h"

namespace dowork {

ScheduledFaults::ScheduledFaults(std::vector<Entry> entries, std::vector<MessageEntry> messages)
    : entries_(std::move(entries)), messages_(std::move(messages)) {}

std::optional<CrashPlan> ScheduledFaults::inspect(int proc, const Round&, const Action& action,
                                                  const SimSnapshot&) {
  if (action.idle()) return std::nullopt;
  const std::uint64_t nth = actions_.next(proc);
  for (const Entry& e : entries_) {
    if (e.proc == proc && e.on_nth_action == nth) return e.plan;
  }
  return std::nullopt;
}

std::optional<MessageFault> ScheduledFaults::on_message(int from, const Round&,
                                                        const DeliveryRecord&) {
  const std::uint64_t nth = commits_.next(from);
  for (const MessageEntry& e : messages_) {
    if (e.from == from && e.on_nth_message == nth) return e.fault;
  }
  return std::nullopt;
}

WorkCascadeFaults::WorkCascadeFaults(std::uint64_t units_before_crash, int max_crashes,
                                     std::size_t deliver_prefix, bool crash_completes_unit)
    : units_before_crash_(units_before_crash),
      max_crashes_(max_crashes),
      deliver_prefix_(deliver_prefix),
      crash_completes_unit_(crash_completes_unit) {}

std::optional<CrashPlan> WorkCascadeFaults::inspect(int proc, const Round&, const Action& action,
                                                    const SimSnapshot& snap) {
  if (snap.crashed_so_far >= max_crashes_) return std::nullopt;
  if (!action.work) return std::nullopt;
  if (units_done_.next(proc) >= units_before_crash_) {
    CrashPlan plan;
    plan.work_completes = crash_completes_unit_;
    plan.deliver_prefix = deliver_prefix_;
    return plan;
  }
  return std::nullopt;
}

RandomFaults::RandomFaults(double p_per_round, int max_crashes, std::uint64_t seed)
    : p_(p_per_round), max_crashes_(max_crashes), rng_(seed) {}

std::optional<CrashPlan> RandomFaults::inspect(int, const Round&, const Action& action,
                                               const SimSnapshot& snap) {
  if (snap.crashed_so_far >= max_crashes_) return std::nullopt;
  if (action.idle()) return std::nullopt;
  if (!rng_.chance(p_)) return std::nullopt;
  CrashPlan plan;
  plan.work_completes = rng_.chance(0.5);
  plan.deliver_prefix = action.sends.empty()
                            ? 0
                            : static_cast<std::size_t>(rng_.uniform(0, action.total_recipients()));
  return plan;
}

}  // namespace dowork
