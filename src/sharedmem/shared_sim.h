// Synchronous crash-prone shared-memory simulator (paper Section 1.1).
//
// The paper contrasts its message-passing model with Kanellakis-Shvartsman's
// shared-memory Write-All setting and notes that shared memory "simplifies
// things considerably for our problem": a straightforward algorithm that
// records progress in shared memory achieves optimal effort O(n + t) (where
// effort counts reads, writes and work units) in O(nt) time, because the
// shared cells survive crashes -- unlike unsent messages.  The standard
// emulations of shared memory over message passing don't help the other way
// round: they tolerate < t/2 failures and multiply message costs (the
// paper's argument for studying the message-passing problem directly).
//
// Model: atomic single-cell reads and writes; per round a live process
// performs one operation (read, write, or a unit of work).  A read issued
// in round r returns the cell value at the start of round r; if several
// processes write one cell in the same round, the lowest id wins (any rule
// works for the algorithms here).  Crashes may suppress the in-flight
// operation: a crash is a ScheduledFaults entry keyed by (process, k-th
// non-idle operation), whose plan's work_completes decides whether the
// crashing operation takes effect.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/fault_injector.h"

namespace dowork {

struct SharedOp {
  enum class Kind { kIdle, kRead, kWrite, kWork, kTerminate };
  Kind kind = Kind::kIdle;
  std::int64_t cell = -1;   // for kRead/kWrite
  std::int64_t value = 0;   // for kWrite
  std::int64_t unit = 0;    // for kWork (1-based)

  static SharedOp idle() { return {}; }
  static SharedOp read(std::int64_t c) { return {Kind::kRead, c, 0, 0}; }
  static SharedOp write(std::int64_t c, std::int64_t v) { return {Kind::kWrite, c, v, 0}; }
  static SharedOp work(std::int64_t u) { return {Kind::kWork, -1, 0, u}; }
  static SharedOp terminate() { return {Kind::kTerminate, -1, 0, 0}; }
};

class ISharedProcess {
 public:
  virtual ~ISharedProcess() = default;
  // `last_read` carries the value returned by the previous round's read (if
  // any).  Return the operation for this round.
  virtual SharedOp on_round(std::uint64_t round, std::optional<std::int64_t> last_read) = 0;
  // Fast-forward support: earliest round >= now at which the process acts.
  virtual std::uint64_t next_wake(std::uint64_t now) const = 0;
};

struct SharedMetrics {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t work_total = 0;
  std::uint64_t crashes = 0;
  std::uint64_t last_round = 0;
  std::vector<std::uint64_t> unit_multiplicity;
  bool all_retired = false;
  // The shared-memory notion of effort: memory operations plus work.
  std::uint64_t effort() const { return reads + writes + work_total; }
  bool all_units_done() const {
    for (auto m : unit_multiplicity)
      if (m == 0) return false;
    return true;
  }
};

class SharedMemSim {
 public:
  struct Options {
    std::int64_t n_units = 0;
    std::int64_t n_cells = 0;
    std::uint64_t max_rounds = 100'000'000;
  };

  // `crashes` is a ScheduledFaults kill list; the last survivor never dies.
  SharedMemSim(std::vector<std::unique_ptr<ISharedProcess>> procs, Options options,
               std::vector<ScheduledFaults::Entry> crashes = {});

  SharedMetrics run();

 private:
  std::vector<std::unique_ptr<ISharedProcess>> procs_;
  Options opt_;
  std::vector<ScheduledFaults::Entry> crashes_;
  ProcOrdinals ops_;  // non-idle operations, as ScheduledFaults counts actions
  std::vector<bool> retired_;
  std::vector<std::int64_t> cells_;
  std::vector<std::optional<std::int64_t>> pending_read_;
  SharedMetrics metrics_;
};

}  // namespace dowork
