#include "substrate/wire.h"

#include <cstring>
#include <typeinfo>

#include "protocols/baseline_checkpoint.h"
#include "protocols/protocol_a.h"
#include "protocols/protocol_b.h"
#include "protocols/protocol_c.h"
#include "protocols/protocol_d.h"
#include "util/bitset.h"

namespace dowork::substrate::wire {

namespace {

// Payload type tags (closed set -- wire.h documents the policy).
enum class PayloadTag : std::uint8_t {
  kNull = 0,
  kCheckpointPartial = 1,  // "(c)"
  kCheckpointFull = 2,     // "(c, g)"
  kGoAhead = 3,
  kOrdinaryC = 4,
  kPollC = 5,
  kPollReplyC = 6,
  kAgree = 7,
  kBaselineCkpt = 8,
};

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void u8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void round(const Round& r) {
    if (r.fits_u64()) {
      u8(0);
      u64(r.to_u64_saturating());
    } else {
      u8(1);
      const BigUint big = r.as_big();
      for (int i = 0; i < BigUint::kLimbs; ++i) u64(big.limb(i));
    }
  }

  // b with the positions [lo, hi) cleared (a cut S view), word by word.
  void bitset(const DynBitset& b, std::size_t lo = 0, std::size_t hi = 0) {
    u64(b.size());
    for (std::size_t i = 0; i < b.word_count(); ++i) u64(b.word_without(i, lo, hi));
  }

  // A set-form audience goes out as its members: the shared bitset with
  // the excluded id cleared, so the decoder needs no exclusion of its own.
  void recipients(const RecipientSet& to) {
    if (const SharedBits& bits = to.shared_bits()) {
      u8(1);
      const int ex = to.excluded();
      bitset(*bits, ex < 0 ? 0 : static_cast<std::size_t>(ex),
             ex < 0 ? 0 : static_cast<std::size_t>(ex) + 1);
    } else {
      const IdRange r = to.range();
      u8(0);
      i32(r.first);
      i32(r.end);
    }
  }

  void payload(const Payload* p);

 private:
  void view_c(const ViewC& v) {
    u32(static_cast<std::uint32_t>(v.retired.size()));
    out_->append(reinterpret_cast<const char*>(v.retired.data()), v.retired.size());
    i64(v.point0);
    round(v.round0);
    u32(static_cast<std::uint32_t>(v.point.size()));
    for (int x : v.point) i32(x);
    u32(static_cast<std::uint32_t>(v.round.size()));
    for (const Round& r : v.round) round(r);
  }

  std::string* out_;
};

void Writer::payload(const Payload* p) {
  if (p == nullptr) {
    u8(static_cast<std::uint8_t>(PayloadTag::kNull));
    return;
  }
  if (const auto* m = detail::payload_as<Checkpoint>(p)) {
    // One payload type, two frames: the form picks the tag.
    u8(static_cast<std::uint8_t>(m->g ? PayloadTag::kCheckpointFull
                                      : PayloadTag::kCheckpointPartial));
    i32(m->c);
    if (m->g) i32(*m->g);
  } else if (detail::payload_as<GoAhead>(p) != nullptr) {
    u8(static_cast<std::uint8_t>(PayloadTag::kGoAhead));
  } else if (const auto* m = detail::payload_as<OrdinaryC>(p)) {
    u8(static_cast<std::uint8_t>(PayloadTag::kOrdinaryC));
    view_c(m->view);
  } else if (detail::payload_as<PollC>(p) != nullptr) {
    u8(static_cast<std::uint8_t>(PayloadTag::kPollC));
  } else if (detail::payload_as<PollReplyC>(p) != nullptr) {
    u8(static_cast<std::uint8_t>(PayloadTag::kPollReplyC));
  } else if (const auto* m = detail::payload_as<AgreeMsg>(p)) {
    u8(static_cast<std::uint8_t>(PayloadTag::kAgree));
    i32(m->phase);
    bitset(*m->s_left.base, m->s_left.lo, m->s_left.hi);
    // Flags: done, before the horizon, carries a known set, and T is the
    // implicit {sender} of iteration 0 (no T bitset follows).  A static
    // view (every unit known, past the horizon) with a T encodes as the
    // bare done byte.
    u8(static_cast<std::uint8_t>((m->done ? 1 : 0) | (m->past_horizon ? 0 : 2) |
                                 (m->known ? 4 : 0) | (m->t_alive ? 0 : 8)));
    if (m->t_alive) bitset(*m->t_alive);
    if (m->known) bitset(*m->known);
  } else if (const auto* m = detail::payload_as<BaselineCkpt>(p)) {
    u8(static_cast<std::uint8_t>(PayloadTag::kBaselineCkpt));
    i64(m->done);
  } else {
    throw WireError(std::string("unsupported payload type on the socket substrate: ") +
                    typeid(*p).name());
  }
}

class BodyReader {
 public:
  explicit BodyReader(std::string_view body)
      : p_(reinterpret_cast<const std::uint8_t*>(body.data())), end_(p_ + body.size()) {}

  std::uint8_t u8() {
    need(1);
    return *p_++;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p_++) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p_++) << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  Round round() {
    const std::uint8_t tag = u8();
    if (tag == 0) return Round{u64()};
    if (tag != 1) throw WireError("bad round tag");
    std::array<std::uint64_t, BigUint::kLimbs> limbs;
    for (auto& l : limbs) l = u64();
    return Round{BigUint::from_limbs(limbs)};
  }

  DynBitset bitset() {
    const std::uint64_t n = u64();
    // A bitset's size is a process/unit count; cap it like a frame length.
    if (n > kMaxFrameLen) throw WireError("bitset size out of range");
    DynBitset b(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < b.word_count(); ++i) b.assign_word(i, u64());
    return b;
  }

  RecipientSet recipients() {
    const std::uint8_t tag = u8();
    if (tag == 0) {
      const int first = i32();
      const int end = i32();
      return RecipientSet{IdRange{first, end}};
    }
    if (tag != 1) throw WireError("bad recipient-set tag");
    return RecipientSet{share_bits(bitset())};
  }

  MsgKind kind() {
    const std::uint8_t k = u8();
    if (k > static_cast<std::uint8_t>(MsgKind::kOther)) throw WireError("bad message kind");
    return static_cast<MsgKind>(k);
  }

  std::shared_ptr<const Payload> payload();

  void expect_end() const {
    if (p_ != end_) throw WireError("trailing bytes in frame body");
  }

 private:
  void need(std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n) throw WireError("truncated frame body");
  }

  ViewC view_c() {
    ViewC v;
    const std::uint32_t nr = u32();
    need(nr);
    v.retired.resize(nr);
    std::memcpy(v.retired.data(), p_, nr);
    p_ += nr;
    v.point0 = i64();
    v.round0 = round();
    const std::uint32_t np = u32();
    if (np > kMaxFrameLen) throw WireError("view size out of range");
    v.point.reserve(np);
    for (std::uint32_t i = 0; i < np; ++i) v.point.push_back(i32());
    const std::uint32_t nq = u32();
    if (nq > kMaxFrameLen) throw WireError("view size out of range");
    v.round.reserve(nq);
    for (std::uint32_t i = 0; i < nq; ++i) v.round.push_back(round());
    return v;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

std::shared_ptr<const Payload> BodyReader::payload() {
  switch (static_cast<PayloadTag>(u8())) {
    case PayloadTag::kNull:
      return nullptr;
    case PayloadTag::kCheckpointPartial:
      return std::make_shared<Checkpoint>(i32());
    case PayloadTag::kCheckpointFull: {
      const int c = i32();
      const int g = i32();
      return std::make_shared<Checkpoint>(c, g);
    }
    case PayloadTag::kGoAhead:
      return std::make_shared<GoAhead>();
    case PayloadTag::kOrdinaryC:
      return std::make_shared<OrdinaryC>(view_c());
    case PayloadTag::kPollC:
      return std::make_shared<PollC>();
    case PayloadTag::kPollReplyC:
      return std::make_shared<PollReplyC>();
    case PayloadTag::kAgree: {
      const int phase = i32();
      SView s(share_bits(bitset()));  // uncut
      const std::uint8_t flags = u8();
      if (flags > 15) throw WireError("bad agreement flags");
      SharedBits t = (flags & 8) != 0 ? nullptr : share_bits(bitset());
      SharedBits known = (flags & 4) != 0 ? share_bits(bitset()) : nullptr;
      return std::make_shared<AgreeMsg>(phase, std::move(s), std::move(t), (flags & 1) != 0,
                                        std::move(known), (flags & 2) == 0);
    }
    case PayloadTag::kBaselineCkpt:
      return std::make_shared<BaselineCkpt>(i64());
  }
  throw WireError("bad payload tag");
}

// Wraps a finished body in the frame header.
std::string frame(FrameType type, const std::string& body) {
  const std::uint32_t len = static_cast<std::uint32_t>(body.size() + 1);
  std::string out;
  out.reserve(4 + len);
  Writer w(&out);
  w.u32(len);
  w.u8(static_cast<std::uint8_t>(type));
  out += body;
  return out;
}

}  // namespace

std::string encode_hello(const HelloMsg& h) {
  std::string body;
  Writer w(&body);
  w.i32(h.proc);
  w.round(h.wake0);
  w.i64(h.known0);
  return frame(FrameType::kHello, body);
}

std::string encode_deliver(int from, MsgKind kind, const Round& sent_round,
                           const Payload* payload) {
  std::string body;
  Writer w(&body);
  w.i32(from);
  w.u8(static_cast<std::uint8_t>(kind));
  w.round(sent_round);
  w.payload(payload);
  return frame(FrameType::kDeliver, body);
}

std::string encode_step(const Round& round) {
  std::string body;
  Writer w(&body);
  w.round(round);
  return frame(FrameType::kStep, body);
}

std::string encode_reply(const Action& action, const Round& next_wake, std::int64_t known) {
  std::string body;
  Writer w(&body);
  std::uint8_t flags = 0;
  if (action.work) flags |= 1;
  if (action.terminate) flags |= 2;
  w.u8(flags);
  if (action.work) w.i64(*action.work);
  w.u32(static_cast<std::uint32_t>(action.sends.size()));
  for (std::size_t i = 0; i < action.sends.size(); ++i) {
    const Outgoing& o = action.sends[i];
    w.u8(static_cast<std::uint8_t>(o.kind));
    w.recipients(o.to);
    // Payload sharing is semantic: the simulator's strict mode counts
    // distinct payload *objects* to enforce one-broadcast-per-round, so a
    // payload shared across sends must come back as one object, not a copy
    // per send.  A back-reference (1 + index of the earlier send) encodes
    // exactly the sharing structure; 0 means an inline payload follows.
    std::size_t shared_with = i;
    for (std::size_t j = 0; j < i; ++j)
      if (action.sends[j].payload.get() == o.payload.get()) { shared_with = j; break; }
    if (shared_with < i) {
      w.u32(static_cast<std::uint32_t>(shared_with) + 1);
    } else {
      w.u32(0);
      w.payload(o.payload.get());
    }
  }
  w.round(next_wake);
  w.i64(known);
  return frame(FrameType::kReply, body);
}

std::string encode_kill(std::uint32_t tear_bytes) {
  std::string body;
  Writer w(&body);
  w.u32(tear_bytes);
  return frame(FrameType::kKill, body);
}

std::string encode_exit() { return frame(FrameType::kExit, std::string()); }

HelloMsg decode_hello(std::string_view body) {
  BodyReader r(body);
  HelloMsg h;
  h.proc = r.i32();
  h.wake0 = r.round();
  h.known0 = r.i64();
  r.expect_end();
  return h;
}

DeliveryRecord decode_deliver(std::string_view body, int self) {
  BodyReader r(body);
  DeliveryRecord rec;
  rec.from = r.i32();
  rec.kind = r.kind();
  rec.sent = r.round();
  rec.payload = r.payload();
  r.expect_end();
  rec.to = self;
  rec.cut = 1;
  return rec;
}

Round decode_step(std::string_view body) {
  BodyReader r(body);
  Round round = r.round();
  r.expect_end();
  return round;
}

ReplyMsg decode_reply(std::string_view body) {
  BodyReader r(body);
  ReplyMsg m;
  const std::uint8_t flags = r.u8();
  if ((flags & 1) != 0) m.action.work = r.i64();
  m.action.terminate = (flags & 2) != 0;
  const std::uint32_t nsends = r.u32();
  if (nsends > kMaxFrameLen) throw WireError("send count out of range");
  m.action.sends.reserve(nsends);
  for (std::uint32_t i = 0; i < nsends; ++i) {
    Outgoing o;
    o.kind = r.kind();
    o.to = r.recipients();
    const std::uint32_t backref = r.u32();
    if (backref == 0) {
      o.payload = r.payload();
    } else if (backref <= i) {
      o.payload = m.action.sends[backref - 1].payload;
    } else {
      throw WireError("payload back-reference out of range");
    }
    m.action.sends.push_back(std::move(o));
  }
  m.next_wake = r.round();
  m.known = r.i64();
  r.expect_end();
  return m;
}

std::uint32_t decode_kill(std::string_view body) {
  BodyReader r(body);
  const std::uint32_t tear = r.u32();
  r.expect_end();
  return tear;
}

void FrameReader::feed(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

bool FrameReader::next(FrameType* type, std::string* body) {
  const std::size_t avail = buf_.size() - off_;
  if (avail < 4) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf_[off_ + static_cast<std::size_t>(i)]))
           << (8 * i);
  if (len == 0 || len > kMaxFrameLen) throw WireError("bad frame length");
  if (avail < 4 + static_cast<std::size_t>(len)) return false;
  const std::uint8_t t = static_cast<std::uint8_t>(buf_[off_ + 4]);
  if (t < static_cast<std::uint8_t>(FrameType::kHello) ||
      t > static_cast<std::uint8_t>(FrameType::kExit))
    throw WireError("bad frame type");
  *type = static_cast<FrameType>(t);
  body->assign(buf_, off_ + 5, static_cast<std::size_t>(len) - 1);
  off_ += 4 + static_cast<std::size_t>(len);
  // Compact once the consumed prefix dominates, keeping feed() amortized O(n).
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  return true;
}

}  // namespace dowork::substrate::wire
