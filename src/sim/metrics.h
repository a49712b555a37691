// Run metrics: the paper's three complexity measures (work, messages, time)
// plus the breakdowns its proofs reason about.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/message.h"
#include "util/round.h"

namespace dowork {

// How a committed CrashPlan stopped a process (DESIGN.md "Execution
// substrates"): a crash whose delivery cut stops short of the flattened
// send sequence is a mid-broadcast kill, a crash that let every send
// through (or had none to cut on a sending round) is a send-commit kill,
// and a crash on a round with no sends at all stops the process at the
// round barrier.  The socket substrate kills
// its worker processes at exactly these points.
enum class KillPoint : std::uint8_t { kNone, kSendCommit, kMidBroadcast, kRoundBarrier };

// Crashes by kill point, counted by the simulator at every crash commit.
// It is derived from the committed plan, so every backend counts the same
// numbers for the same case under the deterministic schedule.
struct KillCensus {
  std::uint64_t send_commit = 0;
  std::uint64_t mid_broadcast = 0;
  std::uint64_t round_barrier = 0;

  void count(KillPoint kp);  // kNone counts nothing
  std::uint64_t total() const { return send_commit + mid_broadcast + round_barrier; }
};

struct RunMetrics {
  // --- the paper's measures -------------------------------------------------
  std::uint64_t work_total = 0;     // units performed, counting multiplicity
  std::uint64_t messages_total = 0; // point-to-point sends that left a process
  Round last_retire_round;          // round by which every process has retired
  std::uint64_t effort() const { return work_total + messages_total; }

  // Kanellakis-Shvartsman's *available processor steps* (Section 1.1): the
  // sum over rounds, while the algorithm runs, of the number of non-faulty
  // processes -- charging idle processes for every round they merely wait.
  // The paper argues against this measure for message passing (idle
  // processes are free to do other tasks); tracking it here makes the
  // contrast measurable (Protocol C's APS is astronomically large while its
  // effort is optimal).  512-bit: fast-forwarded idle eons are charged too.
  Round available_processor_steps;

  // --- breakdowns -----------------------------------------------------------
  std::array<std::uint64_t, 8> messages_by_kind{};  // indexed by MsgKind
  std::uint64_t crashes = 0;
  KillCensus kills;  // the crashes above, by kill point
  std::uint64_t terminated = 0;
  std::uint64_t stepped_rounds = 0;      // rounds actually simulated (not skipped)
  std::uint64_t fast_forward_jumps = 0;  // idle stretches skipped
  // Max number of distinct processes performing work in a single round.
  // == 1 for the sequential protocols (A/B/C), up to t for Protocol D.
  std::uint64_t max_concurrent_workers = 0;
  // Network plane (sim/network_model.h); all zero on crash-only runs, and
  // the emitted message totals above count sends as emitted regardless --
  // the network eats deliveries, not the sender's bill.  Loss and severed
  // links count point-to-point (per recipient lost); delays count records.
  std::uint64_t net_dropped = 0;  // recipients lost to loss draws / message faults
  std::uint64_t net_blocked = 0;  // recipients severed by a partition window
  std::uint64_t net_delayed = 0;  // records delivered later than the next round
  // Per-unit multiplicity (how often each unit of work was performed); the
  // work-optimality proofs bound sum(multiplicity) <= c*n + c'*t.  32 bits:
  // one count per unit is the largest per-run array at n = 16t, and a count
  // that would pass 2^32 - 1 throws instead of wrapping.
  std::vector<std::uint32_t> unit_multiplicity;  // index = unit-1
  std::vector<std::uint64_t> work_by_proc;
  std::vector<std::uint64_t> messages_by_proc;
  // Recorded at crash and terminate commits, never per step.
  std::vector<int> crashed_procs;  // in commit order
  std::vector<std::optional<std::int64_t>> decisions;  // by process; empty if nobody decides

  // --- outcome --------------------------------------------------------------
  bool all_retired = false;   // run ended with every process crashed/terminated
  bool deadlocked = false;    // run ended because nothing could ever happen again
  bool hit_round_cap = false;
  // Structured degradation: the run was cut short by its execution
  // substrate (the live backend's watchdog detecting a stalled worker)
  // rather than finishing.  The reason is human-readable and lands in the
  // JSON report's violation column instead of the run hanging CTest.
  bool aborted = false;
  std::string aborted_reason;
  // Machine-readable companion to aborted_reason: space-separated
  // "key=value" pairs (cause=..., plus whatever the substrate knows --
  // stalled proc, killed pid, last round reached, socket errno) so fuzz
  // reports and compare_bench.py's abort census can bucket causes without
  // parsing prose.  Empty when the run was not aborted.
  std::string abort_detail;

  std::uint64_t messages_of(MsgKind k) const {
    return messages_by_kind[static_cast<std::size_t>(k)];
  }
  // True iff every unit 1..n was performed at least once.
  bool all_units_done() const;
  std::string summary() const;
};

// Deterministic per-scenario aggregation of RunMetrics: the paper's tables
// report a worst case (or total) over several adversaries / repetitions of
// one configuration, and the parallel harness needs that reduction to be
// independent of completion order.  absorb() is commutative and
// associative, so aggregating rows in scenario order gives identical output
// whether the runs happened on 1 thread or 8.
struct MetricsAggregate {
  std::uint64_t runs = 0;
  std::uint64_t max_work = 0, sum_work = 0;
  std::uint64_t max_messages = 0, sum_messages = 0;
  std::uint64_t max_effort = 0, sum_effort = 0;
  std::uint64_t max_crashes = 0, sum_crashes = 0;
  Round max_rounds;  // max last_retire_round over runs
  bool all_ok = true;  // every absorbed run completed and retired

  void absorb(const RunMetrics& m);
  std::string summary() const;
};

}  // namespace dowork
