// Wire codec for the socket substrate (src/substrate/wire.h): every frame
// kind and every payload of the closed set round-trips bit-exactly, the
// incremental FrameReader reassembles frames from arbitrary byte splits,
// a mid-write kill's torn prefix is classified (mid_frame) rather than
// erroring, and malformed bytes are structured WireErrors -- the codec is
// the trust boundary between the coordinator and its worker processes.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bitset_printer.h"
#include "protocols/baseline_checkpoint.h"
#include "protocols/protocol_a.h"
#include "protocols/protocol_b.h"
#include "protocols/protocol_c.h"
#include "protocols/protocol_d.h"
#include "substrate/wire.h"
#include "util/bitset.h"

namespace dowork::substrate::wire {
namespace {

// Frames a blob through the reader and hands back (type, body).  Feeding
// byte-at-a-time exercises every resume point of the incremental parser.
std::pair<FrameType, std::string> read_one(const std::string& frame, bool byte_at_a_time) {
  FrameReader reader;
  if (byte_at_a_time) {
    for (char c : frame) reader.feed(&c, 1);
  } else {
    reader.feed(frame.data(), frame.size());
  }
  FrameType type{};
  std::string body;
  EXPECT_TRUE(reader.next(&type, &body));
  EXPECT_FALSE(reader.mid_frame());
  return {type, body};
}

TEST(WireTest, HelloRoundTripsIncludingPromotedWake) {
  HelloMsg h;
  h.proc = 11;
  h.wake0 = Round::pow2(300) + Round{7};  // far past u64: the limb encoding
  h.known0 = 123456789;
  for (bool trickle : {false, true}) {
    auto [type, body] = read_one(encode_hello(h), trickle);
    EXPECT_EQ(type, FrameType::kHello);
    const HelloMsg got = decode_hello(body);
    EXPECT_EQ(got.proc, 11);
    EXPECT_EQ(got.wake0, h.wake0);
    EXPECT_EQ(got.known0, 123456789);
  }
}

TEST(WireTest, StepAndKillAndExitRoundTrip) {
  {
    auto [type, body] = read_one(encode_step(Round{42}), true);
    EXPECT_EQ(type, FrameType::kStep);
    EXPECT_EQ(decode_step(body), Round{42});
  }
  {
    auto [type, body] = read_one(encode_kill(17), true);
    EXPECT_EQ(type, FrameType::kKill);
    EXPECT_EQ(decode_kill(body), 17u);
  }
  {
    auto [type, body] = read_one(encode_exit(), true);
    EXPECT_EQ(type, FrameType::kExit);
    EXPECT_TRUE(body.empty());
  }
}

// One deliver round-trip per payload of the closed set, including the
// zero-field payloads (GoAhead, PollC, PollReplyC) and the null payload.
TEST(WireTest, DeliverRoundTripsEveryPayloadKind) {
  ViewC view;
  view.retired = {1, 0, 0, 1};
  view.point0 = 9;
  view.round0 = Round::pow2(90);  // Protocol C's exponential deadlines
  view.point = {3, -1};
  view.round = {Round{5}, Round::pow2(70) + Round{1}};

  DynBitset s(5);
  s.set(0);
  s.set(4);
  DynBitset alive(5);
  for (std::size_t i = 0; i < 5; ++i) alive.set(i);

  struct Case {
    std::shared_ptr<const Payload> payload;
    MsgKind kind;
  };
  const std::vector<Case> cases = {
      {nullptr, MsgKind::kOther},
      {std::make_shared<Checkpoint>(4), MsgKind::kCheckpoint},
      {std::make_shared<Checkpoint>(4, 2), MsgKind::kCheckpoint},
      {std::make_shared<GoAhead>(), MsgKind::kGoAhead},
      {std::make_shared<OrdinaryC>(view), MsgKind::kOrdinary},
      {std::make_shared<PollC>(), MsgKind::kPoll},
      {std::make_shared<PollReplyC>(), MsgKind::kPollReply},
      {std::make_shared<AgreeMsg>(3, share_bits(s), share_bits(alive), true), MsgKind::kAgreement},
      {std::make_shared<BaselineCkpt>(77), MsgKind::kCheckpoint},
  };
  for (const Case& c : cases) {
    auto [type, body] =
        read_one(encode_deliver(/*from=*/2, c.kind, Round{10}, c.payload.get()), false);
    ASSERT_EQ(type, FrameType::kDeliver);
    const DeliveryRecord e = decode_deliver(body, /*self=*/6);
    EXPECT_EQ(e.from, 2);
    // Addressed to the receiving worker alone.
    EXPECT_EQ(e.to.size(), 1u);
    EXPECT_TRUE(e.delivers_to(6));
    EXPECT_EQ(e.kind, c.kind);
    EXPECT_EQ(e.sent, Round{10});
    if (c.payload == nullptr) {
      EXPECT_EQ(e.payload, nullptr);
      continue;
    }
    ASSERT_NE(e.payload, nullptr);
    // Exact dynamic type survives (payload_as is typeid-exact).
    EXPECT_EQ(typeid(*e.payload).name(), std::string(typeid(*c.payload).name()));
  }
}

// The two checkpoint forms share one payload type but keep their own frames:
// the partial (c) is tag 1 and c, the full (c, g) tag 2, c and g.  Pinned
// byte for byte, so sockets and recorded frames stay readable across
// payload refactors.
TEST(WireTest, CheckpointFramesArePinned) {
  using namespace std::string_literals;
  // u32 body length, kDeliver, from = 2, kCheckpoint, sent round 10 (u64 form).
  const std::string head = "\x02\x02\x00\x00\x00\x01\x00\x0a\x00\x00\x00\x00\x00\x00\x00"s;
  const Checkpoint partial(7);
  const Checkpoint full(12, 3);
  EXPECT_EQ(encode_deliver(2, MsgKind::kCheckpoint, Round{10}, &partial),
            "\x14\x00\x00\x00"s + head + "\x01\x07\x00\x00\x00"s);
  EXPECT_EQ(encode_deliver(2, MsgKind::kCheckpoint, Round{10}, &full),
            "\x18\x00\x00\x00"s + head + "\x02\x0c\x00\x00\x00\x03\x00\x00\x00"s);
}

TEST(WireTest, DeliverPreservesPayloadFields) {
  for (const std::optional<int> g : {std::optional<int>{}, std::optional<int>{5}}) {
    const auto ckpt = std::make_shared<Checkpoint>(13, g);
    auto [type, body] =
        read_one(encode_deliver(0, MsgKind::kCheckpoint, Round{1}, ckpt.get()), false);
    const DeliveryRecord e = decode_deliver(body, 3);
    const auto* got = Msg(e).as<Checkpoint>();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->c, 13);
    EXPECT_EQ(got->g, g);
  }

  DynBitset s(70);  // multi-word bitset with a ragged tail
  s.set(0);
  s.set(63);
  s.set(69);
  DynBitset alive(70);
  alive.set(7);
  const auto agree = std::make_shared<AgreeMsg>(2, share_bits(s), share_bits(alive), false);
  auto [t2, b2] = read_one(encode_deliver(1, MsgKind::kAgreement, Round{4}, agree.get()), false);
  const DeliveryRecord e2 = decode_deliver(b2, 0);
  const auto* ga = Msg(e2).as<AgreeMsg>();
  ASSERT_NE(ga, nullptr);
  EXPECT_EQ(ga->phase, 2);
  EXPECT_EQ(ga->done, false);
  ASSERT_EQ(ga->s_left.base->size(), 70u);
  EXPECT_TRUE(ga->s_left.base->test(0));
  EXPECT_TRUE(ga->s_left.base->test(63));
  EXPECT_TRUE(ga->s_left.base->test(69));
  EXPECT_FALSE(ga->s_left.base->test(1));
  EXPECT_TRUE(ga->t_alive->test(7));
}

// Both kinds of agreement view round-trip: a static one (every unit known,
// past the horizon) and a dynamic one carrying its known set and a false
// horizon flag.  Flag bits beyond the four defined ones are rejected.
TEST(WireTest, AgreeViewRoundTripsKnownSetAndHorizonFlag) {
  DynBitset s(70, true);
  s.reset(3);
  DynBitset known(70);
  known.set(2);
  known.set(3);
  known.set(66);
  const SharedBits alive = share_bits(DynBitset(5, true));
  const AgreeMsg as_static(4, share_bits(s), alive, true);
  const AgreeMsg as_dynamic(4, share_bits(s), alive, false, share_bits(known), false);
  for (const AgreeMsg* sent : {&as_static, &as_dynamic}) {
    const std::string frame = encode_deliver(1, MsgKind::kAgreement, Round{9}, sent);
    auto [type, body] = read_one(frame, true);
    const DeliveryRecord rec = decode_deliver(body, 0);
    const auto* got = Msg(rec).as<AgreeMsg>();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->phase, 4);
    EXPECT_EQ(got->done, sent->done);
    EXPECT_EQ(got->past_horizon, sent->past_horizon);
    EXPECT_EQ(*got->s_left.base, s);
    EXPECT_EQ(*got->t_alive, *alive);
    ASSERT_EQ(got->known == nullptr, sent->known == nullptr);
    if (sent->known) {
      EXPECT_EQ(*got->known, known);
    }
  }
  // A static view with an implicit T ends in its flags byte (done, no T).
  const AgreeMsg implicit_t(4, share_bits(s), nullptr, true);
  std::string frame = encode_deliver(1, MsgKind::kAgreement, Round{9}, &implicit_t);
  ASSERT_EQ(frame.back(), 9);
  frame.back() = 16 | 9;
  auto [type, body] = read_one(frame, false);
  EXPECT_THROW(decode_deliver(body, 0), WireError);
}

// A cut S view goes on the wire as the bitset it stands for: the same
// frame bytes as its flat equivalent, decoded uncut.
TEST(WireTest, CutAgreeViewEncodesAsItsFlatEquivalent) {
  DynBitset base(130, true);  // three words, a ragged tail
  base.reset(5);
  const SharedBits alive = share_bits(DynBitset(9, true));
  for (const auto& [lo, hi] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 0}, {10, 20}, {60, 70}, {64, 128}, {100, 130}}) {
    const SView cut(share_bits(base), lo, hi);
    const AgreeMsg as_cut(3, cut, alive, false);
    const AgreeMsg as_flat(3, share_bits(cut.flat()), alive, false);
    const std::string frame = encode_deliver(2, MsgKind::kAgreement, Round{7}, &as_cut);
    EXPECT_EQ(frame, encode_deliver(2, MsgKind::kAgreement, Round{7}, &as_flat))
        << "[" << lo << ", " << hi << ")";
    auto [type, body] = read_one(frame, false);
    const DeliveryRecord rec = decode_deliver(body, 0);
    const auto* got = Msg(rec).as<AgreeMsg>();
    ASSERT_NE(got, nullptr);
    EXPECT_FALSE(got->s_left.cut());
    EXPECT_EQ(*got->s_left.base, cut.flat());
  }
}

// Iteration 0's view carries T = {sender} implicitly: no T bitset goes on
// the wire, and the decoded view's T is null again.
TEST(WireTest, ImplicitTAgreeViewRoundTripsWithoutABitset) {
  const SharedBits s = share_bits(DynBitset(70, true));
  const AgreeMsg implicit_t(1, SView(s, 10, 20), nullptr, false);
  const AgreeMsg explicit_t(1, SView(s, 10, 20), share_bits(DynBitset(64, true)), false);
  const std::string frame = encode_deliver(4, MsgKind::kAgreement, Round{3}, &implicit_t);
  EXPECT_EQ(frame.size() + 8 + 8,  // the T bitset: its size word and one word
            encode_deliver(4, MsgKind::kAgreement, Round{3}, &explicit_t).size());
  auto [type, body] = read_one(frame, true);
  const DeliveryRecord rec = decode_deliver(body, 0);
  const auto* got = Msg(rec).as<AgreeMsg>();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->phase, 1);
  EXPECT_FALSE(got->done);
  EXPECT_EQ(got->t_alive, nullptr);
  EXPECT_EQ(*got->s_left.base, implicit_t.s_left.flat());
}

// A set-form audience less one member goes out as its members and decodes
// to the same members: the excluded id stays out, everyone else is in.
TEST(WireTest, ExcludedMemberAudienceRoundTripsItsMembers) {
  DynBitset u(130, true);  // three words, a ragged tail
  u.reset(70);
  for (int self : {0, 63, 64, 129}) {
    const RecipientSet aud(share_bits(u), self);
    Action a;
    a.sends.push_back({aud, MsgKind::kAgreement, std::make_shared<PollC>()});
    auto [type, body] = read_one(encode_reply(a, Round{2}, 0), false);
    const RecipientSet got = decode_reply(body).action.sends.at(0).to;
    EXPECT_EQ(got.size(), aud.size()) << "self " << self;
    EXPECT_EQ(got.size(), 128u) << "self " << self;
    for (int id = 0; id < 130; ++id) EXPECT_EQ(got.contains(id), aud.contains(id)) << id;
    EXPECT_FALSE(got.contains(self));
  }
}

TEST(WireTest, ReplyRoundTripsWorkSendsAndAudiences) {
  Action a;
  a.work = 41;
  auto [type0, body0] = read_one(encode_reply(a, Round{8}, /*known=*/40), true);
  EXPECT_EQ(type0, FrameType::kReply);
  ReplyMsg m0 = decode_reply(body0);
  ASSERT_TRUE(m0.action.work.has_value());
  EXPECT_EQ(*m0.action.work, 41);
  EXPECT_TRUE(m0.action.sends.empty());
  EXPECT_FALSE(m0.action.terminate);
  EXPECT_EQ(m0.next_wake, Round{8});
  EXPECT_EQ(m0.known, 40);

  // Every audience representation: single id, range, and a max-audience
  // shared bitset (all t processes).
  Action b;
  b.terminate = true;
  DynBitset everyone(64);
  for (std::size_t i = 0; i < 64; ++i) everyone.set(i);
  b.sends.push_back({RecipientSet{3}, MsgKind::kPollReply, std::make_shared<PollReplyC>()});
  b.sends.push_back(
      {RecipientSet{IdRange{4, 9}}, MsgKind::kCheckpoint, std::make_shared<Checkpoint>(2)});
  const SharedBits all = share_bits(everyone);
  b.sends.push_back({RecipientSet{share_bits(everyone)}, MsgKind::kAgreement,
                     std::make_shared<AgreeMsg>(1, all, all, false)});
  auto [type1, body1] = read_one(encode_reply(b, Round{9}, 0), false);
  ReplyMsg m1 = decode_reply(body1);
  EXPECT_TRUE(m1.action.terminate);
  ASSERT_EQ(m1.action.sends.size(), 3u);
  EXPECT_EQ(m1.action.sends[0].to.size(), 1u);
  EXPECT_TRUE(m1.action.sends[0].to.contains(3));
  EXPECT_EQ(m1.action.sends[1].to.size(), 5u);
  EXPECT_TRUE(m1.action.sends[1].to.contains(4));
  EXPECT_TRUE(m1.action.sends[1].to.contains(8));
  EXPECT_FALSE(m1.action.sends[1].to.contains(9));
  EXPECT_EQ(m1.action.sends[2].to.size(), 64u);
  EXPECT_TRUE(m1.action.sends[2].to.contains(63));
}

TEST(WireTest, ReplyPreservesPayloadSharingAcrossSends) {
  // The strict one-broadcast check counts distinct payload OBJECTS, so a
  // payload shared by several Outgoing entries must decode back to one
  // object (the back-reference encoding), never to per-send copies.
  Action a;
  const auto shared = std::make_shared<Checkpoint>(3, 1);
  a.sends.push_back({RecipientSet{IdRange{0, 4}}, MsgKind::kCheckpoint, shared});
  a.sends.push_back({RecipientSet{IdRange{8, 12}}, MsgKind::kCheckpoint, shared});
  a.sends.push_back({RecipientSet{5}, MsgKind::kPollReply, std::make_shared<PollReplyC>()});
  auto [type, body] = read_one(encode_reply(a, Round{1}, 0), false);
  ReplyMsg m = decode_reply(body);
  ASSERT_EQ(m.action.sends.size(), 3u);
  EXPECT_EQ(m.action.sends[0].payload.get(), m.action.sends[1].payload.get());
  EXPECT_NE(m.action.sends[0].payload.get(), m.action.sends[2].payload.get());
}

TEST(WireTest, FrameReaderReassemblesBackToBackFramesFromAnySplit) {
  const std::string stream =
      encode_step(Round{1}) + encode_exit() + encode_kill(3) + encode_step(Round::pow2(80));
  // Split the stream at every position: both halves fed separately must
  // yield the identical frame sequence.
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameReader reader;
    reader.feed(stream.data(), split);
    std::vector<FrameType> types;
    FrameType type{};
    std::string body;
    while (reader.next(&type, &body)) types.push_back(type);
    reader.feed(stream.data() + split, stream.size() - split);
    while (reader.next(&type, &body)) types.push_back(type);
    ASSERT_EQ(types.size(), 4u) << "split at " << split;
    EXPECT_EQ(types[0], FrameType::kStep);
    EXPECT_EQ(types[1], FrameType::kExit);
    EXPECT_EQ(types[2], FrameType::kKill);
    EXPECT_EQ(types[3], FrameType::kStep);
    EXPECT_FALSE(reader.mid_frame());
  }
}

TEST(WireTest, TornFrameIsClassifiedNotErrored) {
  // A mid-write SIGKILL leaves the first N bytes of a frame on the stream.
  // Every proper prefix must parse to "no frame yet, mid-frame pending" --
  // exactly what the coordinator's reader uses to discard ghost bytes of a
  // mid-broadcast crash.
  const std::string frame = encode_reply(Action{}, Round{5}, 2);
  for (std::size_t torn = 1; torn < frame.size(); ++torn) {
    FrameReader reader;
    reader.feed(frame.data(), torn);
    FrameType type{};
    std::string body;
    EXPECT_FALSE(reader.next(&type, &body)) << "torn at " << torn;
    EXPECT_TRUE(reader.mid_frame());
    EXPECT_EQ(reader.pending(), torn);
  }
}

TEST(WireTest, MalformedBytesAreStructuredErrors) {
  // Zero-length frame.
  {
    FrameReader reader;
    const char zeros[5] = {0, 0, 0, 0, 1};
    reader.feed(zeros, sizeof zeros);
    FrameType type{};
    std::string body;
    EXPECT_THROW(reader.next(&type, &body), WireError);
  }
  // Unknown frame type byte.
  {
    FrameReader reader;
    const char bad[5] = {1, 0, 0, 0, 99};
    reader.feed(bad, sizeof bad);
    FrameType type{};
    std::string body;
    EXPECT_THROW(reader.next(&type, &body), WireError);
  }
  // Truncated body and trailing garbage at the decoder layer.
  EXPECT_THROW(decode_hello(std::string_view("ab")), WireError);
  {
    auto [type, body] = read_one(encode_step(Round{3}), false);
    body.push_back('\0');
    EXPECT_THROW(decode_step(body), WireError);
  }
}

TEST(WireTest, UnknownPayloadTypeIsAStructuredError) {
  // The closed-set policy: a payload outside the roster must be an explicit
  // WireError at ENCODE time (a new protocol opting into the socket backend
  // extends the codec first), never silently dropped bytes.
  struct Mystery final : Payload {};
  const Mystery m;
  EXPECT_THROW(encode_deliver(0, MsgKind::kOther, Round{1}, &m), WireError);
  Action a;
  a.sends.push_back({RecipientSet{1}, MsgKind::kOther, std::make_shared<Mystery>()});
  EXPECT_THROW(encode_reply(a, Round{1}, 0), WireError);
}

}  // namespace
}  // namespace dowork::substrate::wire
