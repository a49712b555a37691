#include "sharedmem/shared_sim.h"

#include <algorithm>

namespace dowork {

SharedMemSim::SharedMemSim(std::vector<std::unique_ptr<ISharedProcess>> procs, Options options,
                           std::vector<ScheduledFaults::Entry> crashes)
    : procs_(std::move(procs)), opt_(options), crashes_(std::move(crashes)) {
  const std::size_t t = procs_.size();
  retired_.assign(t, false);
  pending_read_.assign(t, std::nullopt);
  cells_.assign(static_cast<std::size_t>(opt_.n_cells), 0);
  metrics_.unit_multiplicity.assign(static_cast<std::size_t>(opt_.n_units), 0);
}

SharedMetrics SharedMemSim::run() {
  std::uint64_t r = 0;
  std::uint64_t rounds_stepped = 0;
  while (true) {
    int alive = 0;
    for (bool b : retired_)
      if (!b) ++alive;
    if (alive == 0) {
      metrics_.all_retired = true;
      break;
    }
    if (++rounds_stepped > opt_.max_rounds) break;

    // Collect this round's operations; reads see the cell values from the
    // start of the round, writes apply at the end (lowest id wins).
    std::vector<std::pair<std::int64_t, std::int64_t>> writes;  // (cell, value), id order
    for (std::size_t p = 0; p < procs_.size(); ++p) {
      if (retired_[p]) continue;
      if (pending_read_[p] == std::nullopt && procs_[p]->next_wake(r) > r) continue;
      SharedOp op = procs_[p]->on_round(r, pending_read_[p]);
      pending_read_[p].reset();

      std::optional<CrashPlan> crash;
      if (op.kind != SharedOp::Kind::kIdle && op.kind != SharedOp::Kind::kTerminate) {
        const std::uint64_t nth = ops_.next(static_cast<int>(p));
        for (const ScheduledFaults::Entry& e : crashes_)
          if (!crash && e.proc == static_cast<int>(p) && e.on_nth_action == nth) crash = e.plan;
        // The last survivor (counted at the start of the round) never crashes.
        if (crash && alive <= 1) crash.reset();
      }
      const bool effective = !crash || crash->work_completes;
      switch (op.kind) {
        case SharedOp::Kind::kRead:
          if (effective && op.cell >= 0 && op.cell < opt_.n_cells) {
            ++metrics_.reads;
            pending_read_[p] = cells_[static_cast<std::size_t>(op.cell)];
          }
          break;
        case SharedOp::Kind::kWrite:
          if (effective && op.cell >= 0 && op.cell < opt_.n_cells) {
            ++metrics_.writes;
            writes.emplace_back(op.cell, op.value);
          }
          break;
        case SharedOp::Kind::kWork:
          if (effective) {
            ++metrics_.work_total;
            if (op.unit >= 1 && op.unit <= opt_.n_units)
              ++metrics_.unit_multiplicity[static_cast<std::size_t>(op.unit - 1)];
          }
          break;
        case SharedOp::Kind::kTerminate:
          retired_[p] = true;
          break;
        case SharedOp::Kind::kIdle:
          break;
      }
      if (crash) {
        retired_[p] = true;
        pending_read_[p].reset();
        ++metrics_.crashes;
      }
    }
    // Lowest id wins on write conflicts: writes were gathered in id order,
    // so applying them in reverse makes the lowest id's write land last.
    for (auto it = writes.rbegin(); it != writes.rend(); ++it)
      cells_[static_cast<std::size_t>(it->first)] = it->second;

    metrics_.last_round = r;

    // Fast-forward over idle stretches (deadline-based takeovers).
    bool someone_now = false;
    bool anyone_alive = false;
    std::uint64_t next = UINT64_MAX;
    for (std::size_t p = 0; p < procs_.size(); ++p) {
      if (retired_[p]) continue;
      anyone_alive = true;
      if (pending_read_[p] != std::nullopt) {
        someone_now = true;
        break;
      }
      next = std::min(next, procs_[p]->next_wake(r + 1));
    }
    if (!anyone_alive) {
      metrics_.all_retired = true;
      break;
    }
    if (someone_now)
      r += 1;
    else if (next == UINT64_MAX)
      break;  // deadlock: live processes, no timers
    else
      r = std::max(next, r + 1);
  }
  return metrics_;
}

}  // namespace dowork
