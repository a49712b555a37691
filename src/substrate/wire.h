// Wire format for the socket substrate (substrate/socket_substrate.h).
//
// The coordinator and its worker OS processes exchange length-prefixed
// frames over a localhost stream socket:
//
//   [u32 len LE][u8 type][body]        len counts the type byte + body
//
// Frame types mirror the round barrier's phases: the worker announces
// itself with kHello, the coordinator ships the round's mail as kDeliver
// records followed by one kStep, the worker answers with one kReply
// carrying its Action, and retirement is a real signal -- kExit for
// voluntary termination, SIGKILL for crashes (kKill asks the worker to
// flush the first N bytes of a ghost frame before killing itself, so a
// mid-broadcast crash leaves a genuinely torn frame for the coordinator's
// reader to recover from).
//
// Payload serialization is a CLOSED set: the sync-substrate protocols
// (A/B/C/C_batch/D/D_coord, baselines) exchange a fixed roster of payload
// structs, and the codec enumerates exactly those.  An unknown payload
// type is a structured WireError, never a silent drop -- a new protocol
// opting into the socket backend must extend the codec (and its
// round-trip test) first.  A broadcast's frame bytes are built ONCE and
// written to every recipient, preserving the delivery plane's
// one-allocation-per-broadcast shape across the process boundary.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/message.h"
#include "sim/process.h"
#include "util/round.h"

namespace dowork::substrate::wire {

// Malformed bytes, truncated body, or a payload type outside the closed
// set.  The coordinator maps it to a structured abort; a worker exits
// with a protocol-error status.
struct WireError : std::runtime_error {
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

enum class FrameType : std::uint8_t {
  kHello = 1,    // worker -> coordinator: proc id, initial wake, known units
  kDeliver = 2,  // coordinator -> worker: one message of the round's mail
  kStep = 3,     // coordinator -> worker: evaluate on_round for this round and index
  kReply = 4,    // worker -> coordinator: the Action + next_wake + known units
  kKill = 5,     // coordinator -> worker: flush N torn bytes, then SIGKILL self
  kExit = 6,     // coordinator -> worker: clean shutdown
};

// Sanity bound on a frame's length prefix; anything larger is treated as
// stream corruption rather than an allocation request.
constexpr std::uint32_t kMaxFrameLen = 1u << 28;

struct HelloMsg {
  int proc = -1;
  Round wake0;
  std::int64_t known0 = 0;
};

// A step request: the round and its stepped index (RoundContext).
struct StepMsg {
  Round round;
  std::uint64_t stepped_index = 0;
};

struct ReplyMsg {
  Action action;
  Round next_wake;
  std::int64_t known = 0;
};

// Complete frames, ready to write.
std::string encode_hello(const HelloMsg& h);
std::string encode_deliver(int from, MsgKind kind, const Round& sent_round, const Payload* payload);
std::string encode_step(const Round& round, std::uint64_t stepped_index);
std::string encode_reply(const Action& action, const Round& next_wake, std::int64_t known);
std::string encode_kill(std::uint32_t tear_bytes);
std::string encode_exit();

// Body decoders (the body is everything after the type byte).  All throw
// WireError on truncation or invalid tags.
HelloMsg decode_hello(std::string_view body);
// Returns a record addressed to `self` alone (cut = 1) -- the wire does not
// repeat the recipient id the coordinator already addressed the frame by.
DeliveryRecord decode_deliver(std::string_view body, int self);
StepMsg decode_step(std::string_view body);
ReplyMsg decode_reply(std::string_view body);
std::uint32_t decode_kill(std::string_view body);

// Incremental frame assembly over a stream: feed() raw bytes as they
// arrive, next() yields complete frames.  A frame prefix left buffered at
// EOF is a torn frame -- exactly what a mid-write SIGKILL produces -- and
// mid_frame()/pending() let the reader classify it instead of erroring.
class FrameReader {
 public:
  void feed(const void* data, std::size_t n);
  // Extracts the next complete frame into *type / *body (body excludes the
  // type byte); returns false when only a partial frame (or nothing) is
  // buffered.  Throws WireError on an invalid length prefix or frame type.
  bool next(FrameType* type, std::string* body);
  // Bytes buffered but not yet consumed as frames.
  std::size_t pending() const { return buf_.size() - off_; }
  // True when the buffer holds the prefix of an incomplete frame.
  bool mid_frame() const { return pending() > 0; }

 private:
  std::string buf_;
  std::size_t off_ = 0;
};

}  // namespace dowork::substrate::wire
