// Asynchronous Protocol A (paper Section 2.1, final remark).
//
// The synchronous Protocol A's CheckpointCore (protocols/protocol_a.h),
// unchanged: only the takeover rule differs.  Process j becomes active when
// the failure detector has reported that every process below j crashed or
// terminated, instead of waiting for the absolute deadline DD(j), and an
// active process paces the core's steps one per timer tick.  Work and
// message complexity are unchanged; time depends only on actual delays and
// detector latency, not on worst-case deadlines.
#pragma once

#include <set>

#include "async/async_sim.h"
#include "core/work.h"
#include "protocols/protocol_a.h"

namespace dowork {

class AsyncProtocolAProcess final : public IAsyncProcess {
 public:
  AsyncProtocolAProcess(const DoAllConfig& cfg, int self);

  AsyncAction on_event(ATime now, const AsyncEvent& event) override;

 private:
  bool lower_processes_all_retired() const;

  CheckpointCore core_;
  std::set<int> retired_known_;
};

// Convenience harness mirroring run_do_all for the async model.
AsyncMetrics run_async_protocol_a(
    const DoAllConfig& cfg, AsyncSim::Options options,
    std::unique_ptr<FaultInjector> faults = std::make_unique<NoFaults>());

}  // namespace dowork
