// Message model for the synchronous crash-fault simulator.
//
// A message sent in round r is delivered at the start of round r+1.  Payloads
// are protocol-defined: each protocol derives its payload structs from
// Payload and downcasts on receipt (the simulator never inspects payloads).
// The `kind` tag exists so the metrics layer can break message counts down
// the way the paper does (ordinary vs checkpoint vs go-ahead vs poll...).
//
// Broadcast-native addressing (the delivery plane's core idea): a send names
// its audience as a RecipientSet -- one process, a contiguous id range, or an
// explicit bit set -- instead of materializing one entry per recipient.  The
// simulator records each send ONCE in a per-round broadcast ledger
// (DeliveryRecord) and recipients read it through a lazy InboxView, so a
// t-recipient broadcast costs one ledger record, not t envelopes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "util/bitset.h"
#include "util/round.h"

namespace dowork {

// Classification used only for accounting; protocols choose the tag that
// matches the paper's terminology for each send.
enum class MsgKind : std::uint8_t {
  kOrdinary,     // Protocol C "ordinary" messages; generic data messages
  kCheckpoint,   // Protocol A/B partial & full checkpoint broadcasts
  kGoAhead,      // Protocol B go-ahead probes
  kPoll,         // Protocol C "Are you alive?"
  kPollReply,    // response to a poll (exempt from the one-op-per-round rule)
  kAgreement,    // Protocol D agreement-phase broadcasts
  kValue,        // Byzantine layer: "the general's value is x"
  kOther,
};

const char* to_string(MsgKind k);

struct Payload;

namespace detail {
// Exact dynamic-type equality for the as<T>() downcasts, out of line
// (message.cpp) so the optimizer cannot constant-fold it.  GCC 12 at -O2+
// folds an inline `typeid(*p) == typeid(T)` to false when T lives in an
// anonymous namespace: it drops type_info::operator=='s same-object fast
// path (assuming a runtime typeinfo pointer cannot equal the TU-local
// typeinfo's address -- it can, via the vtable of an object built in that
// TU) and the remaining name comparison rejects '*'-prefixed local names
// by design.  Out of line, both operands are runtime values and the
// comparison is evaluated faithfully.
bool same_payload_type(const std::type_info& a, const std::type_info& b);

// The one shared implementation of exact-dynamic-type payload downcasting
// (Msg::as and Protocol D's ledger index delegate here): a typeinfo-pointer
// fast path (statically linked typeinfos are unique per type, so this is
// one vtable load + compare), then the fold-proof out-of-line comparison --
// a misfolded fast path can only cost the call, never a wrong answer.
template <typename T>
const T* payload_as(const Payload* p) {
  static_assert(std::is_final_v<T>, "as<T> matches exact dynamic types only");
  if (p == nullptr) return nullptr;
  const std::type_info& ti = typeid(*p);
  if (&ti != &typeid(T) && !same_payload_type(ti, typeid(T))) return nullptr;
  return static_cast<const T*>(p);
}
}  // namespace detail

// Base class for protocol payloads.
//
// Ownership rules (the simulator hot path depends on these):
//   * A broadcast allocates its payload ONCE; the one Outgoing of the
//     broadcast and the one ledger record it becomes hold the only
//     references.  The simulator never clones a payload -- it moves the
//     sender's reference into the ledger -- so sending to t recipients costs
//     zero pointer copies and zero refcount traffic (tests/inbox_test.cpp's
//     DeliveryPlane suite pins this down).
//   * Payloads are immutable after send: they are typed `const` end to end,
//     and because all recipients alias one object, any mutation would be a
//     cross-process side channel the model forbids.
//   * A recipient that wants a payload beyond its on_round call copies the
//     message's shared_ptr via Msg::payload() (see the inbox reuse contract
//     in process.h).
struct Payload {
  virtual ~Payload() = default;
};

// A contiguous process-id range [first, end).  Groups are consecutive id
// ranges (protocols/groups.h), so every checkpoint broadcast's audience --
// "group g" or "my group above me" -- is a range; storing the endpoints
// instead of a materialized vector<int> makes broadcast ops allocation-free.
struct IdRange {
  int first = 0;
  int end = 0;  // exclusive
  bool empty() const { return end <= first; }
  std::size_t size() const { return empty() ? 0 : static_cast<std::size_t>(end - first); }
};

// The audience of one send: a single process (unicasts, poll replies), a
// contiguous id range (group checkpoints), or a shared bit set minus at
// most one excluded member (Protocol D's "everyone I still believe correct
// but me").  The set form holds the immutable bitset by reference
// (util/bitset.h's SharedBits), so the sender names its audience with no
// copy -- Protocol D passes its shared u and itself as the excluded id --
// and every ledger record of the broadcast aliases the same object.  It
// leaves the range endpoints unused, so they hold its cached member count
// and the excluded id (-1 = none; only a member is ever excluded).
// Recipients are always enumerated in ascending id order, skipping the
// excluded id; that order defines the "first k recipients" a
// mid-broadcast crash prefix cut delivers to (sim/fault_injector.h).
class RecipientSet {
 public:
  // Default: a single invalid recipient (id -1), like the old unaddressed
  // Outgoing; the simulator rejects it at send time.
  RecipientSet() = default;
  RecipientSet(int to) : lo_(to), hi_(to + 1) {}  // NOLINT(runtime/explicit)
  RecipientSet(IdRange r)                          // NOLINT(runtime/explicit)
      : lo_(r.first), hi_(r.empty() ? r.first : r.end) {}
  // The members of `bits` other than `excluded` (-1 = none).
  RecipientSet(SharedBits bits, int excluded = -1);  // NOLINT(runtime/explicit)

  std::size_t size() const {
    if (bits_) return static_cast<std::size_t>(lo_);
    return hi_ > lo_ ? static_cast<std::size_t>(hi_ - lo_) : 0;
  }
  bool empty() const { return size() == 0; }

  bool contains(int id) const {
    if (bits_)
      return id >= 0 && static_cast<std::size_t>(id) < bits_->size() && id != hi_ &&
             bits_->test(static_cast<std::size_t>(id));
    return lo_ <= id && id < hi_;
  }

  // Position of `id` in the ascending enumeration; only meaningful when
  // contains(id).  Used to test membership in a crash-truncated prefix.
  std::size_t rank_of(int id) const {
    if (bits_)
      return bits_->count_prefix(static_cast<std::size_t>(id)) - (0 <= hi_ && hi_ < id ? 1 : 0);
    return static_cast<std::size_t>(id - lo_);
  }

  // Lowest member id (for error messages / validation); -1 when empty.
  int lowest() const;
  // True when every member id lies in [0, t).
  bool within(int t) const;

  // Calls f(id) for the first `k` members in ascending order (all of them
  // when k >= size(), so SIZE_MAX means "everyone").
  template <typename F>
  void for_each_prefix(std::size_t k, F&& f) const {
    if (bits_) {
      const DynBitset& b = *bits_;
      std::size_t done = 0;
      for (std::size_t i = b.find_next(0); done < k && i < b.size(); i = b.find_next(i + 1)) {
        if (static_cast<int>(i) == hi_) continue;
        f(static_cast<int>(i));
        ++done;
      }
      return;
    }
    // Clamp before narrowing: a huge k (the SIZE_MAX "all" convention)
    // must mean the whole range, not an overflowed int.
    const int stop = k >= size() ? hi_ : lo_ + static_cast<int>(k);
    for (int id = lo_; id < stop; ++id) f(id);
  }

  // Sets the bits of the first `k` members in `dst` (sized >= every member
  // id + 1).  Word-level OR when the audience is a whole set of matching
  // size -- the Protocol D hot path -- restoring the excluded bit to what
  // it was; per-member bits otherwise.
  void mark_prefix(DynBitset& dst, std::size_t k) const {
    if (bits_ && k >= size() && bits_->size() == dst.size()) {
      const bool keep = hi_ >= 0 && dst.test(static_cast<std::size_t>(hi_));
      dst |= *bits_;
      if (hi_ >= 0 && !keep) dst.reset(static_cast<std::size_t>(hi_));
      return;
    }
    for_each_prefix(k, [&dst](int id) { dst.set(static_cast<std::size_t>(id)); });
  }

  // The shared bitset when set-addressed (null otherwise), and the member
  // of it the set excludes (-1 = none); lets wrappers that remap ids and
  // the wire codec detect the representation.
  const SharedBits& shared_bits() const { return bits_; }
  int excluded() const { return bits_ ? hi_ : -1; }
  // The [first, end) range when range/single-addressed (empty when
  // set-addressed).
  IdRange range() const { return bits_ ? IdRange{} : IdRange{lo_, hi_}; }

 private:
  // Range form: [lo_, hi_).  Set form: lo_ = member count, hi_ = excluded.
  int lo_ = -1;
  int hi_ = 0;  // default: single recipient -1
  SharedBits bits_;
};

// The audience is three words, so that the broadcast ledger's records stay
// as small as when it held only a range or one shared pointer.
static_assert(sizeof(RecipientSet) <= 24);

// A message as handed to the simulator by a process (audience chosen, round
// filled in by the simulator).  A broadcast is ONE Outgoing whose `to` names
// every recipient; `to` converts implicitly from a plain process id, so
// unicasts read as before: Outgoing{7, kind, payload}.
struct Outgoing {
  RecipientSet to;
  MsgKind kind = MsgKind::kOther;
  std::shared_ptr<const Payload> payload;
};

// One message, the only message type: a send as the simulator committed
// it, with the round it was sent in.  `cut` is the number of recipients (in
// ascending audience order) the message actually reached -- equal to
// to.size() for an uncut send, smaller when the fault injector killed the
// sender mid-broadcast (CrashPlan::deliver_prefix).  Protocol wrappers that
// translate mail (Protocol D's revert-to-A, the Byzantine layer) and socket
// workers build their own records, each addressed to its one recipient with
// cut = 1.
struct DeliveryRecord {
  int from = -1;
  MsgKind kind = MsgKind::kOther;
  std::size_t cut = 0;
  RecipientSet to;
  std::shared_ptr<const Payload> payload;
  Round sent;  // round in which the sender emitted it

  bool delivers_to(int id) const {
    return to.contains(id) && (cut >= to.size() || to.rank_of(id) < cut);
  }
};

// Every send of A and B is one ledger record (a t = 16384 run commits
// millions), so the record must not grow with the audience forms.
static_assert(sizeof(DeliveryRecord) == 72 || sizeof(void*) != 8);

// A non-owning view of one delivered message, as yielded by InboxView
// iteration.  Copying the underlying payload reference (for retention past
// on_round) is explicit via payload(); plain iteration touches no refcounts.
struct Msg {
  int from = -1;
  MsgKind kind = MsgKind::kOther;
  const DeliveryRecord* rec = nullptr;

  Msg() = default;
  Msg(const DeliveryRecord& r)  // NOLINT(runtime/explicit)
      : from(r.from), kind(r.kind), rec(&r) {}

  const Round& sent_round() const { return rec->sent; }
  // The owning reference; copy it to keep the payload alive past on_round.
  const std::shared_ptr<const Payload>& payload() const { return rec->payload; }

  // Convenience downcast; returns nullptr if the payload has a different
  // dynamic type.  Exact-type matching (every payload struct is final, and
  // receipt code always asks for the concrete type), so this is a typeid
  // comparison -- see detail::payload_as -- rather than a dynamic_cast
  // graph walk.
  template <typename T>
  const T* as() const {
    return detail::payload_as<T>(rec->payload.get());
  }
};

// The inbox a process reads in on_round: a lazy view over a record vector
// (the simulator's round ledger, or a wrapper's or socket worker's own
// records) filtered to "records that deliver to me".  Iteration yields every
// message sent to the process in the previous round, in emission order
// (senders in step order, each sender's sends in Action order) -- exactly
// the order the envelope-based delivery produced.  Guarantees:
//   * iteration allocates nothing and touches no payload refcounts;
//   * empty() is O(1) (the simulator precomputes per-round mail membership);
//   * a crash-truncated broadcast is visible only to the first `cut`
//     recipients in ascending id order (DeliveryRecord::delivers_to).
class InboxView {
 public:
  InboxView() = default;
  // `any` says whether some record delivers to `self` (the simulator
  // precomputes it per round); with it false the view is empty without a
  // scan.
  InboxView(const std::vector<DeliveryRecord>& records, int self, bool any)
      : recs_(&records), self_(self), any_(any) {}

  bool empty() const { return !any_; }
  // Number of messages in the view; O(ledger records), for tests and
  // diagnostics (protocols iterate instead).
  std::size_t count() const;

  // The whole record vector behind the view (on the simulator, every
  // recipient's view reads the same ledger); null only for the default,
  // empty view.  For memoization only: a process may index the round's
  // records once on behalf of all recipients (Protocol D's
  // AgreeMergeCache), keyed by (round, vector address), but uses only the
  // records its own delivers_to admits, and retains nothing from the
  // vector past the round -- the vector is recycled like the view itself
  // (process.h's inbox reuse contract).  The key holds because, within one
  // round, the record vector cache-sharing processes read is the
  // simulator's ledger, never refilled or replaced at the same address.
  const std::vector<DeliveryRecord>* records() const { return recs_; }

  class const_iterator {
   public:
    using value_type = Msg;
    using difference_type = std::ptrdiff_t;
    using reference = const Msg&;
    using pointer = const Msg*;
    using iterator_category = std::forward_iterator_tag;

    const_iterator() = default;
    const_iterator(const InboxView* v, std::size_t i) : v_(v), i_(i) { seek(); }

    reference operator*() const { return cur_; }
    pointer operator->() const { return &cur_; }
    const_iterator& operator++() {
      ++i_;
      seek();
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    // Advances i_ to the next item addressed to the viewer and fills cur_.
    void seek();

    const InboxView* v_ = nullptr;
    std::size_t i_ = 0;
    Msg cur_;
  };

  const_iterator begin() const { return const_iterator(this, any_ ? 0 : limit()); }
  const_iterator end() const { return const_iterator(this, limit()); }

  // First message, by value (a Msg is a handful of pointers).  Iterators
  // own the Msg they expose, so `*inbox.begin()` on the begin() temporary
  // would dangle; use this for one-message peeks.  Precondition: !empty().
  Msg front() const { return *begin(); }

 private:
  friend class const_iterator;
  std::size_t limit() const { return recs_ ? recs_->size() : 0; }

  const std::vector<DeliveryRecord>* recs_ = nullptr;
  int self_ = -1;
  bool any_ = false;
};

// Helper: one broadcast Outgoing addressed to an explicit recipient list
// (converted to a shared bit set; ids need not be sorted).
Outgoing broadcast(const std::vector<int>& recipients, MsgKind kind,
                   std::shared_ptr<const Payload> payload);

// Remaps every member id of `set` through `map` (map[id] = new id, table
// sized for every member), returning a set over ids < t.  Contiguous ranges
// generally map to non-contiguous sets, so the result is bit-set addressed
// unless the input was a unicast.  Used by Protocol D's revert-to-A wrapper
// to translate the embedded protocol's rank-addressed broadcasts back to
// real process ids.
RecipientSet remap_recipients(const RecipientSet& set, const std::vector<int>& map, int t);

}  // namespace dowork
