// Event-driven asynchronous simulator with a perfect failure detector.
//
// Paper Section 2.1: Protocol A uses synchrony only to detect failures (the
// absence of an expected message), so it "can be easily modified to run in a
// completely asynchronous system equipped with a failure detection
// mechanism": instead of waiting for round DD(j), process j becomes active
// once the detector reports that processes 0..j-1 have crashed or
// terminated.  This module provides that substrate: messages take an
// adversarially chosen (seeded) delay in [min_delay, max_delay], process
// steps take step_delay, and whenever a process retires the detector
// notifies every live process after its own bounded delay.  The detector is
// *sound* (never reports a live process) and *complete* (eventually reports
// every retired one) -- the paper's requirements.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/message.h"
#include "sim/network_model.h"
#include "util/rng.h"

namespace dowork {

using ATime = std::uint64_t;

struct AsyncEvent {
  enum class Kind { kStart, kTimer, kMessage, kRetireNotice };
  Kind kind = Kind::kStart;
  // kMessage:
  int from = -1;
  MsgKind msg_kind = MsgKind::kOther;
  std::shared_ptr<const Payload> payload;
  // kRetireNotice: the process reported retired by the failure detector.
  int retired_proc = -1;
};

// The synchronous Action (what the fault injector inspects) plus pacing.
struct AsyncAction {
  Action action;
  // Request a kTimer event this many ticks from now (used by active
  // processes to pace one operation per step).
  std::optional<ATime> timer;
};

class IAsyncProcess {
 public:
  virtual ~IAsyncProcess() = default;
  virtual AsyncAction on_event(ATime now, const AsyncEvent& event) = 0;
};

struct AsyncMetrics {
  std::uint64_t work_total = 0;
  std::uint64_t messages_total = 0;  // protocol messages (FD notices excluded)
  std::uint64_t fd_notices = 0;
  std::uint64_t crashes = 0;
  std::uint64_t net_dropped = 0;  // recipients lost to link loss (counted in messages_total)
  std::uint64_t net_blocked = 0;  // recipients severed by a partition window
  ATime end_time = 0;
  std::vector<std::uint64_t> unit_multiplicity;
  bool all_retired = false;
  bool all_units_done() const {
    for (auto m : unit_multiplicity)
      if (m == 0) return false;
    return true;
  }
};

class AsyncSim {
 public:
  struct Options {
    ATime min_delay = 1;
    ATime max_delay = 20;       // adversarial message delay range
    ATime fd_max_delay = 30;    // detector notification latency bound
    std::uint64_t seed = 1;
    std::int64_t n_units = 0;
    std::uint64_t max_events = 10'000'000;
    // Network weather (sim/network_model.h).  The latency component, when
    // set, REPLACES [min_delay, max_delay] -- the historical delay range was
    // always this model's uniform draw, now under one roof.  Loss and
    // partition apply per recipient at send time.  Failure-detector notices
    // ride the control plane: they model local detector timers, not network
    // messages, so weather never drops, severs, or re-times them (the
    // detector stays sound and complete under any NetSpec).
    NetSpec net;
  };

  // `faults` inspects each action that works or sends (decision point 3
  // only: no SimObservable, no message faults); its CrashPlan applies as on
  // the synchronous simulator, and the last survivor never crashes.
  AsyncSim(std::vector<std::unique_ptr<IAsyncProcess>> procs, Options options,
           std::unique_ptr<FaultInjector> faults);

  AsyncMetrics run();

 private:
  struct QueuedEvent {
    ATime time;
    std::uint64_t seq;  // FIFO tie-break for determinism
    int target;
    AsyncEvent event;
    bool operator>(const QueuedEvent& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  void schedule(ATime time, int target, AsyncEvent event);
  void retire(int proc, ATime now, bool crashed);

  std::vector<std::unique_ptr<IAsyncProcess>> procs_;
  Options opt_;
  std::unique_ptr<FaultInjector> faults_;
  std::vector<bool> retired_;
  int alive_;
  Rng rng_;
  // Latency-normalized network model (see the Options::net comment); draws
  // come from rng_ so a noop/latency-only spec preserves the historical
  // event stream byte for byte.
  NetworkModel net_model_;
  std::uint64_t seq_ = 0;
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> queue_;
  AsyncMetrics metrics_;
};

}  // namespace dowork
