#include "sim/message.h"

namespace dowork {

namespace detail {

bool same_payload_type(const std::type_info& a, const std::type_info& b) { return a == b; }

}  // namespace detail

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kOrdinary: return "ordinary";
    case MsgKind::kCheckpoint: return "checkpoint";
    case MsgKind::kGoAhead: return "go_ahead";
    case MsgKind::kPoll: return "poll";
    case MsgKind::kPollReply: return "poll_reply";
    case MsgKind::kAgreement: return "agreement";
    case MsgKind::kValue: return "value";
    case MsgKind::kOther: return "other";
  }
  return "?";
}

RecipientSet::RecipientSet(SharedBits bits, int excluded) : bits_(std::move(bits)) {
  // Only a member is recorded as excluded, so rank_of can discount it
  // without testing it.
  const bool member = excluded >= 0 && static_cast<std::size_t>(excluded) < bits_->size() &&
                      bits_->test(static_cast<std::size_t>(excluded));
  hi_ = member ? excluded : -1;
  lo_ = static_cast<int>(bits_->count()) - (member ? 1 : 0);
}

int RecipientSet::lowest() const {
  if (bits_) {
    std::size_t i = bits_->find_next(0);
    if (static_cast<int>(i) == hi_) i = bits_->find_next(i + 1);
    return i < bits_->size() ? static_cast<int>(i) : -1;
  }
  return hi_ > lo_ ? lo_ : -1;
}

bool RecipientSet::within(int t) const {
  if (bits_)
    // The invariant that bits at positions >= size() are zero makes the size
    // check sufficient for the upper bound; negative ids cannot be encoded.
    return bits_->size() <= static_cast<std::size_t>(t);
  return lo_ >= 0 && hi_ <= t;
}

std::size_t InboxView::count() const {
  std::size_t c = 0;
  if (recs_)
    for (const DeliveryRecord& r : *recs_)
      if (r.delivers_to(self_)) ++c;
  return c;
}

void InboxView::const_iterator::seek() {
  if (v_ == nullptr || v_->recs_ == nullptr) return;
  const std::vector<DeliveryRecord>& recs = *v_->recs_;
  while (i_ < recs.size() && !recs[i_].delivers_to(v_->self_)) ++i_;
  if (i_ < recs.size()) cur_ = Msg(recs[i_]);
}

Outgoing broadcast(const std::vector<int>& recipients, MsgKind kind,
                   std::shared_ptr<const Payload> payload) {
  std::size_t max_id = 0;
  for (int r : recipients)
    if (r >= 0 && static_cast<std::size_t>(r) + 1 > max_id)
      max_id = static_cast<std::size_t>(r) + 1;
  DynBitset bits(max_id);
  for (int r : recipients)
    if (r >= 0) bits.set(static_cast<std::size_t>(r));
  return Outgoing{share_bits(std::move(bits)), kind, std::move(payload)};
}

RecipientSet remap_recipients(const RecipientSet& set, const std::vector<int>& map, int t) {
  IdRange r = set.range();
  if (r.size() == 1) return map[static_cast<std::size_t>(r.first)];
  DynBitset bits(static_cast<std::size_t>(t));
  set.for_each_prefix(set.size(), [&](int id) {
    bits.set(static_cast<std::size_t>(map[static_cast<std::size_t>(id)]));
  });
  return share_bits(std::move(bits));
}

}  // namespace dowork
