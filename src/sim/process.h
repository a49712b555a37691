// Process interface for the synchronous simulator.
//
// The paper's model: in one time unit a process may compute locally and
// perform one unit of work OR one round of communication (one broadcast).
// Accordingly a process's per-round Action carries at most one work unit or
// one broadcast; the simulator can enforce this in strict mode (poll replies
// are exempt, matching the paper's treatment of inactive processes that
// "only send responses to 'Are you alive?' messages").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/message.h"
#include "util/round.h"

namespace dowork {

// Sentinel wake time for processes with no pending timer (a shared
// constant; copy it to store it).
const Round& never_round();

// What a process does in one round.  A broadcast is ONE entry of `sends`
// whose RecipientSet names the whole audience (message.h); the flattened
// message sequence -- each send expanded to its recipients in ascending id
// order, sends in vector order -- is what the fault injector's
// deliver_prefix indexes into and what every message metric counts.
struct Action {
  std::optional<std::int64_t> work;  // 1-based unit id to perform this round
  std::vector<Outgoing> sends;       // sends emitted this round (audiences, not pairs)
  bool terminate = false;            // retire (voluntarily) at end of round

  static Action none() { return {}; }
  bool idle() const { return !work && sends.empty() && !terminate; }
  // Total point-to-point messages this action emits: the sum of audience
  // sizes.  (Protocols never push empty-audience sends, so sends.empty()
  // iff total_recipients() == 0.)
  std::size_t total_recipients() const {
    std::size_t n = 0;
    for (const Outgoing& o : sends) n += o.to.size();
    return n;
  }
};

// The round a step runs in.  `round` refers to the caller's round (the
// simulator's cur_round_, a socket worker's decoded step), which outlives
// the on_round call; a process that keeps it copies the Round.
struct RoundContext {
  const Round& round;  // current round number (starts at 0)
  int self = -1;
};

// A protocol participant.  Implementations are plain deterministic state
// machines: all inputs arrive via on_round, all outputs leave via Action.
class IProcess {
 public:
  virtual ~IProcess() = default;

  // Called when the process is scheduled in a round: either its wake time
  // arrived or it received mail.  `inbox` views every message sent to it in
  // the previous round (empty view otherwise), in emission order; iterate
  // it as `for (const Msg& m : inbox)`.
  //
  // Inbox reuse contract: the view reads the simulator's round ledger, or a
  // wrapper's or socket worker's own records, which are recycled the
  // moment the round's deliveries are consumed.  A process that wants to
  // keep a payload beyond the call must copy the Msg's owning reference via
  // Msg::payload() (cheap -- payloads are refcount-shared, never cloned);
  // it must not retain Msg values, raw payload pointers, or iterators into
  // the view itself.
  virtual Action on_round(const RoundContext& ctx, const InboxView& inbox) = 0;

  // Earliest round >= `now` at which the process wants to be scheduled if it
  // receives no further messages; never_round() if it is purely reactive.
  // Used by the simulator to fast-forward over idle stretches (essential for
  // Protocol C, whose deadlines are exponential in n+t).
  //
  // Contract: next_wake must be a pure function of the process state, and
  // monotone in `now` -- for now' >= now, next_wake(now') ==
  // max(next_wake(now), now').  Equivalently, the process holds an internal
  // deadline D fixed between on_round calls and answers max(D, now).  The
  // simulator relies on this to query next_wake exactly once per step and
  // cache the answer in its wake queue (simulator.h) instead of re-asking
  // every process every round.
  virtual Round next_wake(const Round& now) const = 0;

  // Observability accessor for adaptive adversaries (src/adversary/, via
  // SimObservable::announced_progress): how many of the run's work units
  // this process currently believes done.  This is the process's *local
  // planning view* — knowledge it earned by performing units or heard in
  // announcements (checkpoints, ordinary messages, agreement views) that
  // physically left some process — so exposing it leaks nothing the
  // adversary, who controls the network and the crash schedule, could not
  // already reconstruct.  It may run ahead of globally committed work for
  // units the process itself is mid-performing (Protocol D books its whole
  // slice at phase entry, per the paper's line 8; A/B count the unit in
  // the current action), and a crash that vetoes the pending unit strands
  // a dead process's count high — the strictly committed per-process
  // tallies live in SimObservable::units_done instead.  Must not
  // speculate about in-flight mail.  Purely diagnostic default: 0.
  virtual std::int64_t known_done_units() const { return 0; }

  // The value this process decided (Byzantine agreement), recorded at its
  // terminate commit in RunMetrics::decisions.  Default: none.
  virtual std::optional<std::int64_t> decision() const { return std::nullopt; }

  // Diagnostic label.
  virtual std::string describe() const { return "process"; }
};

}  // namespace dowork
