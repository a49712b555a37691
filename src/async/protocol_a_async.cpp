#include "async/protocol_a_async.h"

namespace dowork {

AsyncProtocolAProcess::AsyncProtocolAProcess(const DoAllConfig& cfg, int self)
    : core_(cfg, self) {}

bool AsyncProtocolAProcess::lower_processes_all_retired() const {
  for (int p = 0; p < core_.self(); ++p)
    if (retired_known_.find(p) == retired_known_.end()) return false;
  return true;
}

namespace {

// The synchronous core's step, paced one operation per timer tick.
AsyncAction paced(Action a) {
  const bool terminate = a.terminate;
  return AsyncAction{std::move(a), terminate ? std::nullopt : std::optional<ATime>{1}};
}

}  // namespace

AsyncAction AsyncProtocolAProcess::on_event(ATime, const AsyncEvent& event) {
  if (core_.done()) return {};

  switch (event.kind) {
    case AsyncEvent::Kind::kMessage:
      // The detector, not a deadline, drives takeover: the receipt round is
      // never read, so every checkpoint is taken in at round 0.
      if (core_.active()) return {};
      core_.ingest(event.payload.get(), event.from, Round{0});
      return core_.completion_seen() ? paced(core_.retire()) : AsyncAction{};
    case AsyncEvent::Kind::kRetireNotice:
      retired_known_.insert(event.retired_proc);
      break;
    case AsyncEvent::Kind::kStart:
      break;
    case AsyncEvent::Kind::kTimer:
      return core_.active() ? paced(core_.step()) : AsyncAction{};
  }

  // kStart / kRetireNotice: take over once every lower process retired.
  if (core_.active() || !lower_processes_all_retired()) return {};
  core_.activate();
  return paced(core_.step());
}

AsyncMetrics run_async_protocol_a(const DoAllConfig& cfg, AsyncSim::Options options,
                                  std::unique_ptr<FaultInjector> faults) {
  options.n_units = cfg.n;
  std::vector<std::unique_ptr<IAsyncProcess>> procs;
  for (int i = 0; i < cfg.t; ++i) procs.push_back(std::make_unique<AsyncProtocolAProcess>(cfg, i));
  AsyncSim sim(std::move(procs), options, std::move(faults));
  return sim.run();
}

}  // namespace dowork
