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
// Only who the agreement messages go to differs from Protocol D; the rest is
// D's phase core (protocol_d.h): work_slice cuts each work phase's slice,
// stash_views keeps the inbox's views, the coordinator merge and the await
// adoption read their fold_views, the fallback's receive-check is
// agree_receive with grace 2, and end_phase with its RevertToA wrapper
// decides terminate, next phase or revert.
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

 private:
  enum class PhaseKind { kWork, kAgrCoord, kAgrAwait, kAgrListen, kAgrFallback, kRevertA,
                         kFinished };

  int coordinator() const;  // lowest-id process believed alive
  void enter_work_phase(const Round& now);
  // Starts a view exchange from this phase's S: sn_ = s_, tn_ = {self}.
  void reset_views();
  // Sends (sn_, tn_, done) to every member of `who` except self.
  Action broadcast_view(const DynBitset& who, bool done);
  void clear_seen();
  void finish_phase(const Round& now);

  std::int64_t n_;
  int t_;
  int self_;

  PhaseKind phase_kind_ = PhaseKind::kWork;
  int phase_ = 1;
  SView s_;  // shared immutable views, as in protocol_d.h
  SharedBits t_alive_;

  std::vector<std::int64_t> my_slice_;
  std::size_t slice_pos_ = 0;
  Round work_end_;  // == this phase's agreement entry round R
  bool work_entered_ = false;

  // Agreement state; broadcasts alias sn_ and tn_.
  DynBitset u_;
  SharedBits tn_;
  SView sn_;
  // This phase's messages, indexed by sender (null = silent), as
  // fold_views reads them; held_ keeps their payloads alive, since the
  // coordinator's reports and the awaited final view span several rounds.
  std::vector<const AgreeMsg*> seen_;
  std::vector<std::shared_ptr<const Payload>> held_;
  Round agr_entry_;        // R
  bool responded_ = false;
  int iter_ = 0;           // fallback iteration counter
  Round resume_at_;        // next work-phase entry round

  std::unique_ptr<RevertToA> revert_;  // set once phase_kind_ is kRevertA
  bool terminated_ = false;
};

}  // namespace dowork
