// Delivery-plane unit tests: RecipientSet addressing, the broadcast ledger's
// InboxView (iteration order, prefix-cut visibility, the empty fast path),
// and the allocation contract (one payload allocation per broadcast, zero
// per-recipient work in steady state).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bitset_printer.h"
#include "sim/fault_injector.h"
#include "sim/message.h"
#include "sim/simulator.h"

namespace dowork {
namespace {

// Counts its constructions, copies included, so the allocation-contract
// test below can assert one payload per broadcast.
struct TagPayload final : Payload {
  static inline std::uint64_t constructions = 0;
  int tag;
  explicit TagPayload(int t) : tag(t) { ++constructions; }
  TagPayload(const TagPayload& o) : Payload(o), tag(o.tag) { ++constructions; }
};

SharedBits bits_of(std::vector<int> ids, int t) {
  DynBitset b(static_cast<std::size_t>(t));
  for (int id : ids) b.set(static_cast<std::size_t>(id));
  return share_bits(std::move(b));
}

// --- RecipientSet ------------------------------------------------------------

TEST(RecipientSet, SingleRangeAndSetAddressing) {
  RecipientSet single(5);
  EXPECT_EQ(single.size(), 1u);
  EXPECT_TRUE(single.contains(5));
  EXPECT_FALSE(single.contains(4));
  EXPECT_EQ(single.rank_of(5), 0u);
  EXPECT_TRUE(single.within(6));
  EXPECT_FALSE(single.within(5));

  RecipientSet range(IdRange{2, 6});
  EXPECT_EQ(range.size(), 4u);
  EXPECT_TRUE(range.contains(2));
  EXPECT_TRUE(range.contains(5));
  EXPECT_FALSE(range.contains(6));
  EXPECT_EQ(range.rank_of(4), 2u);

  RecipientSet set(bits_of({1, 3, 6}, 8));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(2));
  EXPECT_FALSE(set.contains(-1));
  EXPECT_FALSE(set.contains(100));
  EXPECT_EQ(set.rank_of(6), 2u);  // members below 6: {1, 3}
  EXPECT_TRUE(set.within(8));
  EXPECT_EQ(set.lowest(), 1);
}

TEST(RecipientSet, ForEachPrefixEnumeratesAscending) {
  std::vector<int> got;
  RecipientSet set(bits_of({1, 3, 6}, 8));
  set.for_each_prefix(2, [&](int id) { got.push_back(id); });
  EXPECT_EQ(got, (std::vector<int>{1, 3}));

  got.clear();
  RecipientSet range(IdRange{4, 9});
  range.for_each_prefix(99, [&](int id) { got.push_back(id); });
  EXPECT_EQ(got, (std::vector<int>{4, 5, 6, 7, 8}));
}

TEST(RecipientSet, MarkPrefixMatchesForEach) {
  // The word-OR fast path (full set, matching sizes) and the generic member
  // loop must mark identical bits.
  auto shared = bits_of({0, 2, 5, 7}, 8);
  RecipientSet set(shared);
  DynBitset fast(8);
  set.mark_prefix(fast, set.size());
  DynBitset slow(8);
  set.for_each_prefix(set.size(), [&](int id) { slow.set(static_cast<std::size_t>(id)); });
  EXPECT_EQ(fast, slow);

  // A cut forces the member loop; only the first k ascending members mark.
  DynBitset cut(8);
  set.mark_prefix(cut, 2);
  EXPECT_TRUE(cut.test(0));
  EXPECT_TRUE(cut.test(2));
  EXPECT_FALSE(cut.test(5));
  EXPECT_FALSE(cut.test(7));
}

// A set with one excluded member (Protocol D's "u less me") behaves exactly
// like the plain set of its other members, under every prefix cut: none,
// the first member, just below and just above the excluded id's position,
// everyone, and the SIZE_MAX convention.
TEST(RecipientSet, ExcludedMemberActsAsAbsent) {
  const SharedBits u = bits_of({0, 2, 5, 7, 9, 12}, 16);
  const RecipientSet aud(u, 7);
  const RecipientSet plain(bits_of({0, 2, 5, 9, 12}, 16));
  EXPECT_EQ(aud.shared_bits(), u);  // held by reference, not copied
  EXPECT_EQ(aud.excluded(), 7);
  EXPECT_EQ(aud.size(), 5u);
  EXPECT_EQ(aud.lowest(), 0);
  EXPECT_TRUE(aud.within(16));
  EXPECT_FALSE(aud.within(15));
  EXPECT_FALSE(aud.contains(7));
  EXPECT_TRUE(aud.contains(5));
  EXPECT_TRUE(aud.contains(9));
  EXPECT_EQ(aud.rank_of(5), 2u);
  EXPECT_EQ(aud.rank_of(9), 3u);  // 7 is not counted below 9
  EXPECT_EQ(aud.rank_of(12), 4u);
  for (int id = -1; id <= 17; ++id) {
    EXPECT_EQ(aud.contains(id), plain.contains(id)) << id;
    if (plain.contains(id)) {
      EXPECT_EQ(aud.rank_of(id), plain.rank_of(id)) << id;
    }
  }
  // 5 is the last member below the excluded 7, 9 the first above it.
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                        std::size_t{5}, SIZE_MAX}) {
    std::vector<int> got, want;
    aud.for_each_prefix(k, [&](int id) { got.push_back(id); });
    plain.for_each_prefix(k, [&](int id) { want.push_back(id); });
    EXPECT_EQ(got, want) << "k " << k;
    if (k == 4) {
      EXPECT_EQ(got, (std::vector<int>{0, 2, 5, 9}));  // 7 skipped
    }
    const DeliveryRecord cut_aud{7, MsgKind::kAgreement, std::min(k, aud.size()), aud, nullptr, {}};
    const DeliveryRecord cut_plain{7, MsgKind::kAgreement, std::min(k, plain.size()), plain,
                                   nullptr, {}};
    for (int id = 0; id < 16; ++id)
      EXPECT_EQ(cut_aud.delivers_to(id), cut_plain.delivers_to(id)) << "k " << k << ", id " << id;
  }

  // Excluding the lowest member moves lowest(); excluding a non-member is
  // no exclusion at all.
  EXPECT_EQ(RecipientSet(bits_of({3, 5}, 8), 3).lowest(), 5);
  EXPECT_EQ(RecipientSet(bits_of({3}, 8), 3).lowest(), -1);
  EXPECT_TRUE(RecipientSet(bits_of({3}, 8), 3).empty());
  const RecipientSet not_member(bits_of({1, 2}, 8), 4);
  EXPECT_EQ(not_member.excluded(), -1);
  EXPECT_EQ(not_member.size(), 2u);
  EXPECT_EQ(not_member.rank_of(2), 1u);
}

// mark_prefix's word-OR path ORs in the whole shared set and must leave the
// excluded bit as it found it: set when another record already marked it,
// clear otherwise.  The member loop of a cut marks the same bits as the
// plain set's.
TEST(RecipientSet, MarkPrefixRestoresTheExcludedBit) {
  const RecipientSet aud(bits_of({0, 2, 5, 7, 9, 12}, 16), 7);
  DynBitset clear(16);
  aud.mark_prefix(clear, aud.size());
  EXPECT_EQ(clear, *bits_of({0, 2, 5, 9, 12}, 16));
  DynBitset marked(16);
  marked.set(7);  // another record reached 7
  marked.set(14);
  aud.mark_prefix(marked, aud.size());
  EXPECT_EQ(marked, *bits_of({0, 2, 5, 7, 9, 12, 14}, 16));
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    DynBitset cut(16);
    aud.mark_prefix(cut, k);
    DynBitset want(16);
    RecipientSet(bits_of({0, 2, 5, 9, 12}, 16)).mark_prefix(want, k);
    EXPECT_EQ(cut, want) << "k " << k;
  }
}

TEST(RecipientSet, RemapTranslatesMembers) {
  // rank -> id translation as Protocol D's revert wrapper uses it.
  std::vector<int> map{2, 5, 7};
  RecipientSet unicast = remap_recipients(RecipientSet(1), map, 8);
  EXPECT_EQ(unicast.size(), 1u);
  EXPECT_TRUE(unicast.contains(5));

  RecipientSet range = remap_recipients(RecipientSet(IdRange{0, 3}), map, 8);
  EXPECT_EQ(range.size(), 3u);
  EXPECT_TRUE(range.contains(2));
  EXPECT_TRUE(range.contains(5));
  EXPECT_TRUE(range.contains(7));
  EXPECT_FALSE(range.contains(0));
}

// --- InboxView over the ledger ----------------------------------------------

DeliveryRecord record(int from, MsgKind kind, RecipientSet to, int tag,
                      std::size_t cut = SIZE_MAX, Round sent = Round{0}) {
  DeliveryRecord r;
  r.from = from;
  r.kind = kind;
  r.cut = std::min(cut, to.size());
  r.to = std::move(to);
  r.payload = std::make_shared<TagPayload>(tag);
  r.sent = std::move(sent);
  return r;
}

std::vector<int> tags_seen(const InboxView& v) {
  std::vector<int> tags;
  for (const Msg& m : v) tags.push_back(m.as<TagPayload>()->tag);
  return tags;
}

TEST(InboxView, FiltersRecordsToRecipientInEmissionOrder) {
  std::vector<DeliveryRecord> ledger;
  ledger.push_back(record(0, MsgKind::kCheckpoint, IdRange{1, 4}, 100, SIZE_MAX, Round{41}));
  ledger.push_back(record(2, MsgKind::kOther, 5, 200));            // unicast, not for 1
  ledger.push_back(record(3, MsgKind::kPollReply, 1, 300));        // spillover unicast for 1
  ledger.push_back(record(4, MsgKind::kAgreement, bits_of({1, 5}, 6), 400));

  InboxView v1(ledger, /*self=*/1, /*any=*/true);
  EXPECT_FALSE(v1.empty());
  EXPECT_EQ(v1.count(), 3u);
  // Broadcasts and unicasts interleave exactly in emission order.
  EXPECT_EQ(tags_seen(v1), (std::vector<int>{100, 300, 400}));
  // Msg metadata reflects the record, its sent round included.
  Msg first = v1.front();
  EXPECT_EQ(first.from, 0);
  EXPECT_EQ(first.kind, MsgKind::kCheckpoint);
  EXPECT_EQ(first.sent_round(), Round{41});

  InboxView v5(ledger, /*self=*/5, /*any=*/true);
  EXPECT_EQ(tags_seen(v5), (std::vector<int>{200, 400}));
}

TEST(InboxView, PrefixCutHidesHigherIdRecipients) {
  std::vector<DeliveryRecord> ledger;
  // Broadcast to {1,2,3,4} cut at 2: only 1 and 2 (ascending order) see it.
  ledger.push_back(record(0, MsgKind::kOther, IdRange{1, 5}, 1, /*cut=*/2));
  // Set-addressed broadcast to {2,4,6} cut at 1: only 2 sees it.
  ledger.push_back(record(1, MsgKind::kOther, bits_of({2, 4, 6}, 7), 2, /*cut=*/1));

  auto count_for = [&](int self) {
    return InboxView(ledger, self, true).count();
  };
  EXPECT_EQ(count_for(1), 1u);
  EXPECT_EQ(count_for(2), 2u);
  EXPECT_EQ(count_for(3), 0u);
  EXPECT_EQ(count_for(4), 0u);
  EXPECT_EQ(count_for(6), 0u);
}

TEST(InboxView, EmptyFastPathSkipsTheLedger) {
  std::vector<DeliveryRecord> ledger;
  ledger.push_back(record(0, MsgKind::kOther, 3, 9));
  // `any` is the simulator's precomputed mail-membership bit; with it false
  // the view is empty without a ledger scan (begin() == end() immediately).
  InboxView v(ledger, /*self=*/5, /*any=*/false);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.begin(), v.end());

  InboxView def;
  EXPECT_TRUE(def.empty());
  EXPECT_EQ(def.begin(), def.end());
}

TEST(InboxView, WrapperBuiltRecordsKeepTheirSentRounds) {
  // Protocol wrappers (Protocol D's revert, the Byzantine layer) and socket
  // workers build their own records: one per message, addressed to the one
  // recipient with cut = 1, each stamped with its sender's send round --
  // which need not agree across senders (a latency-delayed record arrives
  // beside on-time ones).
  std::vector<DeliveryRecord> mail;
  mail.push_back(
      DeliveryRecord{4, MsgKind::kValue, 1, 1, std::make_shared<TagPayload>(77), Round{9}});
  mail.push_back(
      DeliveryRecord{2, MsgKind::kOther, 1, 1, std::make_shared<TagPayload>(78), Round{6}});
  InboxView v(mail, /*self=*/1, /*any=*/true);
  EXPECT_FALSE(v.empty());
  EXPECT_EQ(v.count(), 2u);
  const std::vector<std::pair<int, Round>> want = {{4, Round{9}}, {2, Round{6}}};
  std::vector<std::pair<int, Round>> got;
  for (const Msg& m : v) got.emplace_back(m.from, m.sent_round());
  EXPECT_EQ(got, want);
  EXPECT_EQ(v.front().as<TagPayload>()->tag, 77);
}

// --- allocation contract -----------------------------------------------------

// Broadcasts one payload to every other process each round for `rounds`
// rounds, then terminates.
class RoundBroadcaster final : public IProcess {
 public:
  RoundBroadcaster(int t, int rounds) : t_(t), rounds_(rounds) {}
  Action on_round(const RoundContext&, const InboxView&) override {
    Action a;
    if (sent_ < rounds_) {
      a.sends.push_back(
          Outgoing{IdRange{1, t_}, MsgKind::kOther, std::make_shared<TagPayload>(sent_)});
      ++sent_;
    }
    if (sent_ >= rounds_) a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  int t_;
  int rounds_;
  int sent_ = 0;
};

// Consumes mail forever (keeps nothing); tallies into an external counter
// (the processes die with run_simulation's Simulator).
class Sink final : public IProcess {
 public:
  explicit Sink(int* seen) : seen_(seen) {}
  Action on_round(const RoundContext&, const InboxView& inbox) override {
    for (const Msg& m : inbox) *seen_ += m.as<TagPayload>() != nullptr;
    return {};
  }
  Round next_wake(const Round&) const override { return never_round(); }

 private:
  int* seen_;
};

TEST(DeliveryPlane, OnePayloadAllocationPerBroadcastZeroPerRecipient) {
  constexpr int t = 33;
  constexpr int rounds = 16;
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<RoundBroadcaster>(t, rounds));
  std::vector<int> seen(t, 0);
  for (int i = 1; i < t; ++i) procs.push_back(std::make_unique<Sink>(&seen[i]));
  const std::uint64_t before = TagPayload::constructions;
  RunMetrics m = run_simulation(std::move(procs), std::make_unique<NoFaults>(), {});
  const std::uint64_t allocated = TagPayload::constructions - before;

  EXPECT_EQ(m.messages_total, static_cast<std::uint64_t>(rounds) * (t - 1));
  // TagPayload counts every construction and copy in the run: exactly one
  // per broadcast round -- zero per-recipient allocations or clones in
  // steady state, whatever the fan-out.
  EXPECT_EQ(allocated, static_cast<std::uint64_t>(rounds));
  for (int i = 1; i < t; ++i) EXPECT_EQ(seen[i], rounds) << "recipient " << i;
}

}  // namespace
}  // namespace dowork
