// The "straightforward" shared-memory Do-All algorithm from the paper's
// Section 1.1 comparison: a shared progress counter records how many units
// are done; at most one process is active at a time (absolute deadlines, as
// in Protocol A), and a taker simply reads the counter and continues from
// there.  Because the counter survives crashes, at most one unit is redone
// per failure: effort (reads + writes + work) is 2n + O(t) -- optimal O(n+t)
// -- with running time O(nt).  This is what "shared memory simplifies
// things considerably" means concretely; contrast with the message-passing
// protocols that need checkpointing waves to reconstruct the same
// information.
#pragma once

#include "core/work.h"
#include "sharedmem/shared_sim.h"

namespace dowork {

class WriteAllCounterProcess final : public ISharedProcess {
 public:
  WriteAllCounterProcess(const DoAllConfig& cfg, int self)
      : n_(cfg.n), self_(self), deadline_(static_cast<std::uint64_t>(self) *
                                          static_cast<std::uint64_t>(2 * cfg.n + 4)) {
    cfg.validate();
  }

  SharedOp on_round(std::uint64_t round, std::optional<std::int64_t> last_read) override;
  std::uint64_t next_wake(std::uint64_t now) const override;

 private:
  enum class Phase { kWait, kReadIssued, kWork, kWriteBack, kDone };

  std::int64_t n_;
  int self_;
  std::uint64_t deadline_;
  Phase phase_ = Phase::kWait;
  std::int64_t done_ = 0;  // counter value: units 1..done_ complete
};

// Harness: run the counter algorithm on t processes with the given crash
// schedule (each entry crashes its process on its k-th shared-memory/work
// operation).
SharedMetrics run_write_all(const DoAllConfig& cfg,
                            std::vector<ScheduledFaults::Entry> crashes = {});

}  // namespace dowork
