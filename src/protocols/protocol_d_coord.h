// Coordinator variant of Protocol D (paper Section 4, closing remark):
// "We can also cut down the message complexity in the case of no failures to
// 2(t-1), rather than 2t^2 ... Instead of messages being broadcast during
// the agreement phase, they are all sent to a central coordinator, who
// broadcasts the results. ... Dealing with failures is somewhat subtle."
//
// The subtlety is the mixed state a crashed coordinator can leave behind (a
// prefix of the final-view broadcast delivered).  This implementation
// resolves it with fixed per-phase offsets and a reactive fallback:
//
//   R      work phase ends; every non-coordinator sends its view (one
//          message) to the coordinator = lowest-id process believed alive;
//   R+1..2 the coordinator collects reports (the extra round absorbs the
//          <=1 round of skew) and then broadcasts the merged final view;
//   R+3..4 participants await the final view;
//   R+5    anyone still lacking it starts a *fallback*: the standard
//          broadcast agreement (grace 2);
//   R+5..7 processes that did adopt the final view listen; on hearing any
//          fallback traffic they re-broadcast the adopted view as a done
//          message, which the fallback's done-adoption absorbs -- so every
//          survivor leaves the phase with the same view whether or not the
//          coordinator (or any adopter) died mid-broadcast;
//   R+8    everyone enters the next work phase (or terminates/reverts).
//
// Failure-free cost per agreement phase: (t-1) reports + (t-1) final-view
// messages = 2(t-1), at a constant number of extra (message-free) rounds
// relative to the broadcast variant -- the trade the paper describes.
//
// Only who the agreement messages go to differs from Protocol D, and only
// that is written here: the coordinator's collect and finalize rounds, the
// await-and-adopt rounds, the listen and re-broadcast rounds, and their
// fixed offsets.  Everything else is D's own phase loop (DPhaseLoop,
// protocol_d.h): the work phase with its S \ S' cut, the agreement start,
// the broadcasts to u \ {self} through one cached audience (the final
// view and a re-broadcast go to T \ {self}, since u = T until a fallback
// drops someone), the fallback's receive-check at grace 2, and the phase
// end that terminates, starts the next phase or reverts to Protocol A.
#pragma once

#include "protocols/protocol_d.h"
#include "util/bitset.h"

namespace dowork {

class ProtocolDCoordProcess final : public IProcess {
 public:
  ProtocolDCoordProcess(const DoAllConfig& cfg, int self);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override;
  std::string describe() const override;

  // The shared phase loop, for tests: its (S, T), u and phase.
  const DPhaseLoop& loop() const { return loop_; }

 private:
  // Where this process is in the agreement window (read while
  // loop_.agreeing()).
  enum class Stage { kCoord, kAwait, kListen, kFallback };

  int coordinator() const;  // lowest-id process believed alive
  void clear_seen();

  DPhaseLoop loop_;
  Stage stage_ = Stage::kCoord;
  // This phase's messages, indexed by sender (null = silent), as
  // fold_views reads them; held_ keeps their payloads alive, since the
  // coordinator's reports and the awaited final view span several rounds.
  std::vector<const AgreeMsg*> seen_;
  std::vector<std::shared_ptr<const Payload>> held_;
  Round agr_entry_;  // R
  bool responded_ = false;
  Round resume_at_;  // next work-phase entry round
};

}  // namespace dowork
