// Protocol C (paper Section 3): work-optimal Do-All with only O(n + t log t)
// messages (O(t log t) in the batched variant of Corollary 3.9), at the cost
// of running time exponential in n + t.
//
// Processing is organized into log t levels; at level h the processes are
// partitioned into groups of size 2^(log t - h + 1), so each process belongs
// to one group per level (level 1 = everyone, level log t = pairs).  "Work on
// level h-1" (polling members of the level-(h-1) group with "Are you alive?",
// or at level 0 the real work) is reported with an *ordinary message* to the
// pointer position in the level-h group; ordinary messages carry the sender's
// entire view (F, point, round), spreading knowledge as uniformly as
// possible.  A newly active process first performs fault detection from the
// top level down -- leaving level h as soon as it finds a live member --
// which is what prevents the naive Theta(n + t^2) takeover cascade.
//
// An inactive process that last improved its *reduced view* to m at round r
// becomes active at r + D(i, m), with
//     D(i, m) = K (n+t-m) 2^(n+t-1-m)        for m >= 1
//     D(i, 0) = K (t-i) (n+t) 2^(n+t-1)      if it never heard anything,
// so the most knowledgeable non-retired process always takes over first
// (Lemma 3.4).  These deadlines overflow machine words; rounds here are
// 512-bit integers and the simulator fast-forwards across the idle eons.
// The view's round stamps are not: see ViewC.
//
// Guarantees (Theorem 3.8): work <= n + 2t, messages <= n + 8t log t, all
// retired by round t(5t + 2 log t)(n+t)2^(n+t).
//
// For t not a power of two the process space is padded with virtual
// processes that everyone knows to be retired from the start; they are
// excluded from reduced views so the deadline structure is unchanged.
#pragma once

#include <optional>

#include "core/work.h"
#include "sim/process.h"

namespace dowork {

// Level/group geometry of Protocol C.  T = 2^L is the padded process count;
// levels run 1..L with groups of size 2^(L-h+1); global group indices
// enumerate level by level (2^(h-1) groups at level h).
class LevelTree {
 public:
  explicit LevelTree(int t_real);

  int t_real() const { return t_real_; }
  int padded() const { return T_; }
  int levels() const { return L_; }
  int num_groups() const { return T_ - 1; }  // sum over levels; 0 when T == 1

  int group_size(int h) const { return 1 << (L_ - h + 1); }
  int group_base(int h, int proc) const { return proc / group_size(h) * group_size(h); }
  // Global index of the level-h group containing proc, in [0, T-1).
  int group_index(int h, int proc) const {
    return (1 << (h - 1)) - 1 + proc / group_size(h);
  }

 private:
  int t_real_;
  int T_;
  int L_;
};

// A process's view (Section 3.1): the retired set F, and for level 0 plus
// every group in the system the last reported position and when it was
// reported.  Ordinary messages carry a full snapshot; merging keeps, per
// group, the entry with the later round.
//
// "When" is stamped as the round's stepped index (RoundContext), not the
// Round: a view round is only ever compared and assigned, and the index
// orders stepped rounds exactly as their Round values do, so merges decide
// identically while a stamp stays 8 bytes however wide the clock grows past
// a takeover.  The initial stamp 0 sits below every real one (>= 1), as
// Round{0} sat below every round C stamps at (DESIGN.md, "View stamps as
// stepped-round indexes").
struct ViewC {
  std::vector<std::uint8_t> retired;  // F, indexed by process id (incl. padding)
  std::int64_t point0 = 1;            // successor of the last unit known done
  std::uint64_t round0 = 0;
  std::vector<int> point;            // per group index: a process id
  std::vector<std::uint64_t> round;  // per group index

  void merge(const ViewC& other);
  // Reduced view: units known done + *real* failures known (virtual padding
  // processes are common knowledge and excluded).
  std::int64_t reduced(int t_real) const;
};

struct OrdinaryC final : Payload {
  ViewC view;
  explicit OrdinaryC(ViewC v) : view(std::move(v)) {}
};
struct PollC final : Payload {};
struct PollReplyC final : Payload {};

struct ProtocolCOptions {
  // Corollary 3.9: report level-0 work every ceil(n/t) units instead of
  // every unit, cutting messages to O(t log t) at the cost of a larger K.
  bool batch_reports = false;
  // Ablation (Section 3 intro): disable fault detection and never learn
  // failures; reproduces the Theta(n + t^2) takeover cascade.
  bool fault_detection = true;
};

class ProtocolCProcess final : public IProcess {
 public:
  ProtocolCProcess(const DoAllConfig& cfg, int self, ProtocolCOptions options = {},
                   Round start_round = 0);

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override;
  Round next_wake(const Round& now) const override;
  std::string describe() const override;

  // Deadline function, exposed for tests.
  Round deadline_for(std::int64_t m) const;
  std::uint64_t contact_bound_k() const { return k_; }
  const ViewC& view() const { return view_; }

  // Observability accessor (process.h): point0 is the successor of the last
  // unit this process knows done (its own work plus everything ordinary
  // messages taught it).
  std::int64_t known_done_units() const override { return view_.point0 - 1; }

 private:
  enum class State { kPassive, kActive, kDone };

  // Cyclic successor scan in the level-h group of self: first member,
  // starting at `start`, that is not self and not in F.  nullopt if none.
  std::optional<int> first_valid(int h, int start) const;
  std::optional<int> normalize_pointer(int h);  // updates point to the result
  // Send an ordinary message (with a fresh view snapshot) to the pointer
  // target of the level-h group, advancing point and stamping its round
  // with `stamp` (the current stepped index); returns the sends (empty if
  // the group has no live target).
  std::vector<Outgoing> report_to_level(int h, std::uint64_t stamp);
  Action active_step(const RoundContext& ctx, const InboxView& inbox);
  Action finish(Action a);

  LevelTree tree_;
  std::int64_t n_;
  int t_;
  int self_;
  ProtocolCOptions opt_;
  Round start_round_;
  std::uint64_t k_;           // K: contact bound (rounds)
  std::int64_t batch_size_;   // level-0 units per report (1 unless batching)

  State state_ = State::kPassive;
  ViewC view_;
  Round wake_;  // passive: activation deadline; active+awaiting: reply-check round

  // Active-phase machinery.
  int h_ = 0;  // current level; levels()..1 = fault detection, 0 = work
  struct AwaitReply {
    int target;
    Round due;
  };
  std::optional<AwaitReply> await_;
  std::int64_t since_report_ = 0;
  bool report_due_ = false;
};

}  // namespace dowork
