#include "substrate/substrate.h"

#include <thread>
#include <utility>

#include "sim/round_pool.h"

namespace dowork::substrate {

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

RunMetrics run_pool(const ProtocolInfo& info, const DoAllConfig& cfg,
                    std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                    RunStats& stats) {
  auto hold = std::make_unique<LiveRun>(make_processes(info, cfg, opts.protocol_param),
                                        std::move(faults), simulator_options(info, cfg, opts),
                                        opts.live);
  hold->sim.set_step_executor(&hold->pool);

  RunMetrics metrics;
  try {
    metrics = hold->sim.run();
  } catch (...) {
    if (!hold->pool.shutdown()) hold.release();
    throw;
  }
  const bool clean = hold->pool.shutdown();
  stats.threads = hold->pool.threads();
  stats.leaked = !clean;
  if (!clean) hold.release();  // pin the run for the zombie worker
  return metrics;
}

}  // namespace dowork::substrate
