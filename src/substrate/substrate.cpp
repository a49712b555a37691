#include "substrate/substrate.h"

#include <chrono>
#include <thread>
#include <utility>

#include "sim/round_pool.h"

namespace dowork::substrate {

const char* to_string(Transport t) {
  switch (t) {
    case Transport::kUds: return "uds";
    case Transport::kTcp: return "tcp";
  }
  return "?";
}

namespace {

// The run's storage, heap-held so it can be pinned (deliberately leaked)
// when a wedged step survives teardown: its detached worker keeps reading
// the Simulator and the pool, which therefore must never be freed.
struct LiveRun {
  Simulator sim;
  RoundPool pool;

  LiveRun(std::vector<std::unique_ptr<IProcess>> procs, std::unique_ptr<FaultInjector> faults,
          Simulator::Options sim_opts, const LiveOptions& live)
      : sim(std::move(procs), std::move(faults), std::move(sim_opts)),
        pool(static_cast<int>(std::thread::hardware_concurrency()), live) {}
};

}  // namespace

LiveRunResult run_live_do_all(const ProtocolInfo& info, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                              const LiveOptions& live) {
  using Clock = std::chrono::steady_clock;
  cfg.validate();
  auto hold = std::make_unique<LiveRun>(make_processes(info, cfg, opts.protocol_param),
                                        std::move(faults), simulator_options(info, cfg, opts),
                                        live);
  hold->sim.set_step_executor(&hold->pool);

  LiveRunResult result;
  const auto start = Clock::now();
  try {
    result.run.metrics = hold->sim.run();
  } catch (...) {
    if (!hold->pool.shutdown()) hold.release();
    throw;
  }
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();

  const bool clean = hold->pool.shutdown();
  result.stats.wall_seconds = secs;
  if (secs > 0 && result.run.metrics.work_total > 0)
    result.stats.units_per_sec = static_cast<double>(result.run.metrics.work_total) / secs;
  result.stats.kills = hold->pool.kills();
  result.stats.threads = hold->pool.threads();
  result.stats.leaked = !clean;
  if (!clean) hold.release();  // pin the run for the zombie worker

  result.run.violation = verify_run(info, cfg, result.run.metrics);
  return result;
}

LiveRunResult run_live_do_all(const std::string& protocol, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                              const LiveOptions& live) {
  return run_live_do_all(find_protocol(protocol), cfg, std::move(faults), opts, live);
}

}  // namespace dowork::substrate
