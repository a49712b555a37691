// Protocol B (paper Section 2.3-2.4).
//
// Identical to Protocol A once a process is active -- both run the same
// CheckpointCore (protocol_a.h) -- but takeovers are driven by
// message-relative timeouts instead of the absolute deadlines DD(j), which
// cuts the running time from O(nt + t^2) to O(n + t):
//
//   * PTO ("process time out") bounds the gap between messages a process
//     hears from an active process in its own group;
//   * GTO(i) ("group time out") bounds the gap before a higher group hears
//     from group g_i if anyone there is active;
//   * DDB(j, i) combines them: if j last heard (an ordinary message) from i
//     at round r' and silence lasts DDB(j, i) rounds, every group below g_j
//     must have retired.
//
// At r' + DDB(j, i) process j becomes *preactive*: it probes the
// lower-numbered members of its own group one-by-one with go-ahead messages,
// PTO rounds apart.  A live recipient becomes active (its first checkpoint
// broadcast reaches j, sending j back to passive); if all probes go
// unanswered j becomes active itself.  By convention every process starts
// with a fictitious ordinary message (0, g_j) from process 0 at round 0 (the
// core's initial last checkpoint).
//
// Guarantees (Theorem 2.8): work <= 3n, messages <= 10*t*sqrt(t), all
// processes retired by round 3n + 8t -- read as 3t*ceil(n/t) + 8t when t
// does not divide n, since the timeouts budget ceil(n/t) rounds per
// subchunk (DESIGN.md, "Protocol B's round bound on ragged shapes").
#pragma once

#include "core/work.h"
#include "protocols/protocol_a.h"

namespace dowork {

struct GoAhead final : Payload {};

// Protocol B's takeover rule over the shared CheckpointCore: PTO/GTO/DDB
// silence deadlines, preactive probing and the go-ahead.
class ProtocolBProcess final : public IProcess {
 public:
  ProtocolBProcess(const DoAllConfig& cfg, int self, Round start_round = 0);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override;
  std::string describe() const override;
  // Observability accessor (process.h): the core's knowledge, as for A.
  std::int64_t known_done_units() const override { return core_.known_done_units(); }

  // Timeout functions, exposed for tests (all in rounds).
  std::uint64_t pto() const { return pto_; }
  std::uint64_t gto(int i) const;
  std::uint64_t ddb(int i) const;  // DDB(self, i)

 private:
  void enter_preactive(const Round& now);
  // r' + DDB(self, i) for the last checkpoint's round r' and sender i.
  Round passive_deadline() const;
  Round probe_due() const;  // next go-ahead, or activation once all are sent

  CheckpointCore core_;
  std::uint64_t pto_;
  // The passive deadline, cached: passive_deadline() as of the last
  // checkpoint taken in.  Process 0 keeps the start round -- it is active
  // from the start and never re-arms.
  Round deadline_;

  // Preactive probing state (meaningful while passive only).  The targets
  // are the contiguous ids [first_probe_, self).
  Round preactive_start_;
  int first_probe_ = 0;
  int next_probe_ = 0;  // probes sent so far
  bool preactive_ = false;
};

// Every process is one of these, and all but one are passive: pin its size.
static_assert(sizeof(ProtocolBProcess) <= 152 || sizeof(void*) != 8);

}  // namespace dowork
