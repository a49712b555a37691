#include "core/runner.h"

#include <chrono>

#include "sim/round_pool.h"
#include "substrate/socket_substrate.h"
#include "substrate/substrate.h"

namespace dowork {

const char* to_string(Transport t) {
  switch (t) {
    case Transport::kUds: return "uds";
    case Transport::kTcp: return "tcp";
  }
  return "?";
}

Simulator::Options simulator_options(const ProtocolInfo& info, const DoAllConfig& cfg,
                                     const RunOptions& opts) {
  Simulator::Options sim_opts;
  sim_opts.strict_one_op = info.strict_one_op && opts.enforce_strict;
  sim_opts.max_stepped_rounds = opts.max_stepped_rounds;
  sim_opts.n_units = cfg.n;
  sim_opts.net = opts.net;
  return sim_opts;
}

namespace {

RunMetrics run_sim(const ProtocolInfo& info, const DoAllConfig& cfg,
                   std::unique_ptr<FaultInjector> faults, const RunOptions& opts) {
  Simulator sim(make_processes(info, cfg, opts.protocol_param), std::move(faults),
                simulator_options(info, cfg, opts));
  // The pool must outlive sim.run(): the simulator holds a raw pointer for
  // the duration of the run.  sim_threads == 1 keeps the classic serial
  // eval+commit loop (no executor, no threads).
  std::unique_ptr<RoundPool> pool;
  if (opts.sim_threads > 1) {
    pool = std::make_unique<RoundPool>(opts.sim_threads);
    sim.set_step_executor(pool.get());
  }
  return sim.run();
}

}  // namespace

RunResult run_do_all(const ProtocolInfo& info, const DoAllConfig& cfg,
                     std::unique_ptr<FaultInjector> faults, const RunOptions& opts) {
  using Clock = std::chrono::steady_clock;
  cfg.validate();
  RunResult result;
  const auto start = Clock::now();
  switch (opts.backend) {
    case Backend::kSim:
      result.metrics = run_sim(info, cfg, std::move(faults), opts);
      result.stats.threads = opts.sim_threads;
      break;
    case Backend::kPool:
      result.metrics = substrate::run_pool(info, cfg, std::move(faults), opts, result.stats);
      break;
    case Backend::kSocket:
      result.metrics = substrate::run_socket(info, cfg, std::move(faults), opts, result.stats);
      break;
  }
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();
  result.stats.wall_seconds = secs;
  if (secs > 0 && result.metrics.work_total > 0)
    result.stats.units_per_sec = static_cast<double>(result.metrics.work_total) / secs;
  result.violation = verify_run(info, cfg, result.metrics);
  return result;
}

RunResult run_do_all(const std::string& protocol, const DoAllConfig& cfg,
                     std::unique_ptr<FaultInjector> faults, const RunOptions& opts) {
  return run_do_all(find_protocol(protocol), cfg, std::move(faults), opts);
}

}  // namespace dowork
