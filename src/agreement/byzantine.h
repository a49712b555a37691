// Byzantine agreement for crash faults built on the work protocols (paper
// Section 5).
//
// The general (process 0) broadcasts its value to the t+1 *senders*
// (processes 0..t); the senders then run one of the work protocols where
// "performing unit j" means sending the message "the general's value is x"
// to process j-1.  Every process starts with value 0 and adopts any value it
// is informed of; at a predetermined round by which the work protocol must
// have terminated, everyone decides its current value.
//
// Faithfulness notes (the paper's proof depends on both):
//   * with Protocols A and B the checkpoint messages must NOT carry the
//     value (a crashed broadcast could otherwise leak it past the takeover
//     order), so only the unit-j value messages inform;
//   * with Protocol C every protocol message additionally carries the
//     sender's current value (we wrap payloads rather than sending an extra
//     message, matching the paper's piggybacking).
//
// Resulting message complexity: via A/B O(n + t*sqrt(t)) with O(n) rounds
// (improving on Bracha's nonconstructive O(n + t^1.5) bound); via C
// O(n + t log t) messages at exponential time.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.h"
#include "core/work.h"
#include "sim/fault_injector.h"
#include "sim/process.h"

namespace dowork {

// "The general's value is x."
struct ValueMsg final : Payload {
  std::int64_t value;
  explicit ValueMsg(std::int64_t v) : value(v) {}
};

// Protocol C piggyback: an inner protocol payload plus the sender's current
// value for the general (one message on the wire, as in the paper).
struct ValuedPayload final : Payload {
  std::shared_ptr<const Payload> inner;
  std::int64_t value;
  ValuedPayload(std::shared_ptr<const Payload> p, std::int64_t v)
      : inner(std::move(p)), value(v) {}
};

struct ByzantineConfig {
  int n_procs = 0;            // processes that must agree
  int t_faults = 0;           // tolerated crash faults; senders = 0..t_faults
  std::int64_t value = 1;     // the general's input: != 0, the value everyone starts at
  std::string protocol = "B"; // work protocol run by the senders: "A", "B" or "C"
};

struct ByzantineResult : RunResult {
  // Decision of each process; nullopt = crashed before deciding.
  std::vector<std::optional<std::int64_t>> decisions;
  bool general_crashed = false;
  // All surviving processes decided the same value.
  bool agreement = false;
  // The general survived and everyone decided its value (trivially true when
  // the general crashed).
  bool validity = false;
};

// Worst-case retirement bound (with slack) for a work protocol instance,
// used as the predetermined decision round.
Round work_protocol_time_bound(const std::string& protocol, const DoAllConfig& cfg);

// Throws std::invalid_argument for a bad config (value == 0 included) and
// for the socket backend, whose workers build registry protocols by name.
ByzantineResult run_byzantine(const ByzantineConfig& cfg, std::unique_ptr<FaultInjector> faults,
                              const RunOptions& opts = {});

}  // namespace dowork
