// Protocol A (paper Section 2.1-2.2).
//
// At most one process is active at a time.  The active process performs the
// work one subchunk (n/t units) at a time; after each subchunk it does a
// *partial checkpoint* -- broadcasting (c) to the higher-numbered members of
// its own group of ~sqrt(t) processes -- and after each chunk (sqrt(t)
// subchunks) a *full checkpoint*: for each higher group g it broadcasts
// (c, g) to group g and then echoes (c, g) to its own group, checkpointing
// the fact that g was informed.  Process j takes over as the active process
// at round DD(j) = j*(n + 3t) unless it has learned that the work finished
// (it received (t) or a full checkpoint (t, g_j) addressed to its group).
//
// Guarantees (Theorem 2.3): work <= 3n', messages <= 9*t*sqrt(t), all
// processes retired by round n't + 3t^2, where n' = max(n, t) (with n < t a
// subchunk may be empty but is still checkpointed).
//
// Everything but the takeover rule lives in CheckpointCore below, which
// Protocol B (protocol_b.h) and asynchronous A (async/protocol_a_async.h)
// share: checkpoint intake and the completion rule, the active script, and
// the units a process knows are done.  ProtocolAProcess adds only DD(j).
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "core/work.h"
#include "protocols/groups.h"
#include "sim/process.h"

namespace dowork {

// "(c)" -- partial checkpoint: subchunk c has been completed.
struct CkptPartial final : Payload {
  int c;
  explicit CkptPartial(int c_in) : c(c_in) {}
};

// "(c, g)" -- full checkpoint: subchunk c completed and group g informed.
// Delivered either directly to members of group g or as an echo to the
// sender's own group.
struct CkptFull final : Payload {
  int c;
  int g;  // 0-based group index
  CkptFull(int c_in, int g_in) : c(c_in), g(g_in) {}
};

// The information a passive process retains for takeover: the content and
// sender of the last checkpoint message it received.  No real checkpoint
// names subchunk 0, so c == 0 is exactly the initial state: nothing received
// (Protocol B's convention of a fictitious message (0, g_j) from process 0).
struct LastCheckpoint {
  int c = 0;
  std::optional<int> g;  // set for (c, g) messages
  int from = 0;
  Round received_round = 0;
};

// One round of the active process's remaining script: either perform a work
// unit or emit one broadcast.  Recipients are an IdRange (sim/message.h):
// groups are consecutive id ranges (groups.h), so every checkpoint
// broadcast's audience -- "group g" or "my group above me" -- is a range,
// and the range IS the wire representation (the Action carries it as one
// range-addressed send; the simulator never flattens it).
struct ActiveOp {
  std::optional<std::int64_t> work;
  IdRange recipients;
  std::shared_ptr<const Payload> payload;
};

// The active process's remaining script (DoWork in Figure 1), generated
// lazily one op at a time.  CheckpointCore builds one when its process
// activates and frees it once drained, so a passive process carries none.
//
// A takeover is an entry state of the one script, chosen from the last
// checkpoint (`last`) by the constructor: nothing received (c = 0) enters
// the main loop (lines 10-14) at subchunk 1; an echo (c, g) from a group
// mate re-echoes g and continues the full checkpoint at group g + 1; a
// partial (c), or a direct (c, g_self) from an earlier group, repeats the
// partial checkpoint of c and, at a chunk boundary, the full checkpoint
// from the next group.  So the resume (lines 1-9) finishes exactly the
// checkpoint the predecessor interrupted, and no level is paid twice.  The
// direct entry is exact because every CkptFull names a chunk-boundary c:
// full checkpoints are entered only from the partial stage at a boundary.
//
// Laziness matters under takeover cascades: an eager script is O(n + t) ops
// per takeover while the adversary lets each active process consume only a
// chunk's worth.  build_active_plan() below drains a cursor and is what
// plan_test.cpp pins the sequence with.
class ActivePlan {
 public:
  ActivePlan(const GroupLayout& layout, const WorkPartition& part, int self,
             const LastCheckpoint& last);

  bool empty() const { return !next_.has_value(); }
  // Next op of the script; must not be called when empty().
  ActiveOp pop();

 private:
  enum class Stage : std::uint8_t { kUnits, kPartial, kFullDirect, kFullEcho, kDone };

  // Emits the next op into *out and advances the state machine; false when
  // the script is exhausted.  Empty broadcasts convey nothing and the paper
  // charges no round for them, so they emit no op.
  bool produce(ActiveOp* out);
  void advance_subchunk();  // move to subchunk c_ + 1 (or kDone past the last)

  GroupLayout layout_;
  WorkPartition part_;
  int gj_ = 0;        // own group index
  IdRange own_rest_;  // "remainder of the own group": ids in (self, end of group)

  // One-op lookahead so empty() is exact even when the remaining tail emits
  // nothing (e.g. a last-in-group process with no higher groups).
  std::optional<ActiveOp> next_;
  Stage stage_ = Stage::kDone;
  int c_ = 0;           // current subchunk
  std::int64_t u_ = 0;  // next unit within subchunk c_ (kUnits only)
  int g_ = 0;           // current full-checkpoint target group
};

// The eager form of the script -- a drained ActivePlan -- used by the plan
// unit tests and anyone who wants the ops as data.
std::deque<ActiveOp> build_active_plan(const GroupLayout& layout, const WorkPartition& part,
                                       int self, const LastCheckpoint& last);

// The checkpoint core shared by Protocols A and B and asynchronous A (and,
// through RevertToA, Protocol D's revert): everything a process does with
// checkpoints, whatever its takeover rule.  It takes checkpoints in, keeps
// the last one for a takeover, runs the active script (Figure 1's DoWork)
// once activated, and answers what the process knows is done.  The owning
// process decides only *when* to activate -- A at DD(j), B after its
// timeouts and probes, asynchronous A when the failure detector reports
// every lower process retired.
class CheckpointCore {
 public:
  // Every process starts from Protocol B's fictitious ordinary message
  // (0, g_self) from process 0, received at `start_round`; A and
  // asynchronous A never read its round or group.
  CheckpointCore(const DoAllConfig& cfg, int self, const Round& start_round = Round{0});

  // Takes in one received payload: the one decoder of "(c)" and "(c, g)"
  // and the one completion rule -- "(t)" or a direct "(t, g_self)" means
  // all work is done.  Returns whether the payload was a checkpoint.
  bool ingest(const Payload* payload, int from, const Round& received_round);
  // Synchronous receipt: a message sent in round r is received in r + 1.
  bool ingest(const Msg& msg) {
    return ingest(msg.payload().get(), msg.from, msg.sent_round() + Round{1});
  }

  // Becomes the active process, resuming from the last checkpoint taken in.
  void activate();
  // The active script's next op; `terminate` is set on the op that drains
  // the script (at once when a resumed script is already empty).
  Action step();
  // Retires without (further) work: the terminate action.
  Action retire();

  bool active() const { return phase_ == Phase::kActive; }
  bool done() const { return phase_ == Phase::kDone; }
  bool completion_seen() const { return completion_seen_; }
  const LastCheckpoint& last() const { return last_; }
  const GroupLayout& layout() const { return layout_; }
  const WorkPartition& part() const { return part_; }
  int self() const { return self_; }

  // Units known done: the last checkpoint heard (work is sequential, so
  // subchunk c done means units 1..sub_end(c) are done) or the last unit
  // performed.
  std::int64_t known_done_units() const;

 private:
  enum class Phase : std::uint8_t { kPassive, kActive, kDone };

  // Field order packs the core tightly: the A/B scale rows hold one per
  // process, and all but one of them are passive.  A passive core holds
  // what the paper's passive process keeps -- the last checkpoint -- plus
  // its shape; the plan exists only from activation until it is drained.
  GroupLayout layout_;
  int self_;
  WorkPartition part_;
  LastCheckpoint last_;
  std::unique_ptr<ActivePlan> plan_;  // set while active, freed when drained
  std::int64_t top_unit_ = 0;         // highest unit performed
  Phase phase_ = Phase::kPassive;
  bool completion_seen_ = false;
};

// One core per process at t = 65536 is 65536 cores: pin their size.
static_assert(sizeof(CheckpointCore) <= 88 || sizeof(void*) != 8);

// Protocol A's takeover rule: become active at the deadline DD(self).
class ProtocolAProcess final : public IProcess {
 public:
  // `start_round` offsets every deadline (the protocol may be started
  // mid-simulation, e.g. by the Byzantine layer or Protocol D's revert,
  // which translates units and ids around it).
  ProtocolAProcess(const DoAllConfig& cfg, int self, Round start_round = 0);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override;
  std::string describe() const override;
  // Observability accessor (process.h): the core's knowledge.
  std::int64_t known_done_units() const override { return core_.known_done_units(); }

 private:
  CheckpointCore core_;
  Round deadline_;  // start_round + DD(self)
};

static_assert(sizeof(ProtocolAProcess) <= 112 || sizeof(void*) != 8);

}  // namespace dowork
