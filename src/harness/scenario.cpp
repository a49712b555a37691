#include "harness/scenario.h"

#include <chrono>
#include <exception>
#include <stdexcept>

#include "agreement/byzantine.h"
#include "async/protocol_a_async.h"
#include "core/runner.h"
#include "dynamic/dynamic_d.h"
#include "sharedmem/write_all.h"
#include "substrate/differential.h"
#include "util/strings.h"

namespace dowork::harness {

const char* to_string(Substrate s) {
  switch (s) {
    case Substrate::kSync: return "sync";
    case Substrate::kByzantine: return "byzantine";
    case Substrate::kAsync: return "async";
    case Substrate::kSharedMem: return "sharedmem";
    case Substrate::kDynamic: return "dynamic";
    case Substrate::kLive: return "live";
    case Substrate::kDifferential: return "differential";
  }
  return "?";
}

std::string format_round(const Round& r) {
  if (r.fits_u64()) return std::to_string(r.to_u64_saturating());
  return "~2^" + std::to_string(r.log2_floor());
}

namespace {

void fill_sync_metrics(const RunMetrics& m, ScenarioResult& row) {
  row.work = m.work_total;
  row.messages = m.messages_total;
  row.effort = m.effort();
  row.crashes = m.crashes;
  row.last_round = m.last_retire_round;
  row.rounds = format_round(m.last_retire_round);
  row.extra.emplace_back("aps", format_round(m.available_processor_steps));
  if (m.messages_of(MsgKind::kGoAhead))
    row.extra.emplace_back("goaheads", std::to_string(m.messages_of(MsgKind::kGoAhead)));
  if (m.messages_of(MsgKind::kPoll))
    row.extra.emplace_back("polls", std::to_string(m.messages_of(MsgKind::kPoll)));
  // Network-fault columns appear only when the network actually interfered,
  // so crash-only rows render byte-identically to the pre-network harness.
  if (m.net_dropped) row.extra.emplace_back("net_dropped", std::to_string(m.net_dropped));
  if (m.net_blocked) row.extra.emplace_back("net_blocked", std::to_string(m.net_blocked));
  if (m.net_delayed) row.extra.emplace_back("net_delayed", std::to_string(m.net_delayed));
  // Aborted runs (watchdog fires, worker process dies unexpectedly, ...)
  // carry the machine-readable "key=value ..." detail string so tooling
  // (compare_bench.py's abort census) can bucket them by cause without parsing
  // prose.  Absent on every healthy row.
  if (m.aborted && !m.abort_detail.empty())
    row.extra.emplace_back("abort_detail", m.abort_detail);
}

// The crash injector for one repetition: the spec's own factory, unless the
// fuzz hook (Scenario::injector_override) replaces it.
std::unique_ptr<FaultInjector> make_injector(const Scenario& s, int rep) {
  const std::uint64_t r = static_cast<std::uint64_t>(rep);
  return s.injector_override ? s.injector_override(r) : s.faults.make(r);
}

// RunOptions shared by every run_do_all execution, whichever backend runs
// it: sync, live, the differential pair, Byzantine and dynamic.
RunOptions run_options(const Scenario& s, int rep) {
  RunOptions opts;
  if (auto it = s.params.find("protocol_param"); it != s.params.end())
    opts.protocol_param = it->second;
  // The network component rides beside the crash injector; like the
  // seeded crash adversaries, repetition r re-seeds the weather.
  opts.net = s.faults.net;
  opts.net.seed += static_cast<std::uint64_t>(rep);
  // Each backend reads only its own knobs: sim_threads the simulator,
  // the live options the pool and the socket workers.
  opts.sim_threads = s.sim_threads;
  opts.backend = s.backend;
  if (s.param_or("free_sched", 0) == 1) opts.live.schedule = LiveOptions::Schedule::kFree;
  if (s.param_or("transport_tcp", 0) == 1) opts.live.transport = Transport::kTcp;
  return opts;
}

void run_one_rep(const Scenario& s, int rep, ScenarioResult& row) {
  switch (s.substrate) {
    case Substrate::kSync:
    case Substrate::kLive: {
      RunResult r = run_do_all(s.protocol, s.cfg, make_injector(s, rep), run_options(s, rep));
      fill_sync_metrics(r.metrics, row);
      row.ok = r.ok();
      row.violation = r.violation;
      if (s.backend != Backend::kSim) row.units_per_sec = r.stats.units_per_sec;
      // The kill-point census is plan-derived, hence deterministic under the
      // deterministic schedule; free-schedule rows are nondeterministic
      // anyway (that is their point), so the columns are safe either way.
      if (s.substrate == Substrate::kLive && r.metrics.crashes) {
        row.extra.emplace_back("kill_send", std::to_string(r.metrics.kills.send_commit));
        row.extra.emplace_back("kill_midbcast", std::to_string(r.metrics.kills.mid_broadcast));
        row.extra.emplace_back("kill_barrier", std::to_string(r.metrics.kills.round_barrier));
      }
      return;
    }
    case Substrate::kDifferential: {
      substrate::DiffResult d = substrate::run_differential(
          find_protocol(s.protocol), s.cfg, [&] { return make_injector(s, rep); },
          run_options(s, rep));
      // The row reports the sim leg's metrics (either leg would do: a
      // divergence fails the row before anyone reads them).
      fill_sync_metrics(d.sim.metrics, row);
      row.ok = d.ok();
      row.violation = d.divergence;
      row.units_per_sec = d.live.stats.units_per_sec;
      return;
    }
    case Substrate::kByzantine: {
      ByzantineConfig cfg;
      cfg.n_procs = static_cast<int>(s.cfg.n);
      cfg.t_faults = s.cfg.t;
      cfg.value = s.param_or("value", 5);
      cfg.protocol = s.protocol;
      ByzantineResult r = run_byzantine(cfg, make_injector(s, rep), run_options(s, rep));
      fill_sync_metrics(r.metrics, row);
      row.ok = r.ok();
      row.violation = r.violation;
      row.extra.emplace_back("agreement", r.agreement ? "yes" : "NO");
      row.extra.emplace_back("validity", r.validity ? "yes" : "NO");
      row.extra.emplace_back("general_crashed", r.general_crashed ? "yes" : "no");
      return;
    }
    case Substrate::kAsync: {
      AsyncSim::Options opts;
      opts.min_delay = static_cast<ATime>(s.param_or("min_delay", 1));
      opts.max_delay = static_cast<ATime>(s.param_or("max_delay", 10));
      opts.fd_max_delay = static_cast<ATime>(s.param_or("fd_delay", 30));
      opts.seed = s.seed + static_cast<std::uint64_t>(rep);
      // Weather for the async substrate; draws come from the event seed
      // above, so repetitions already explore different weather.
      opts.net = s.faults.net;
      // AsyncSim serves no SimObservable and has no message-fault hook.
      if (s.faults.kind() == FaultSpec::Kind::kAdaptive)
        throw std::invalid_argument("async substrate: adaptive specs need a SimObservable");
      std::unique_ptr<FaultInjector> faults = make_injector(s, rep);
      if (faults->wants_message_faults())
        throw std::invalid_argument("async substrate: message faults are not supported");
      AsyncMetrics m = run_async_protocol_a(s.cfg, opts, std::move(faults));
      row.work = m.work_total;
      row.messages = m.messages_total;
      row.effort = m.work_total + m.messages_total;
      row.crashes = m.crashes;
      row.last_round = Round{m.end_time};
      row.rounds = std::to_string(m.end_time);
      row.ok = m.all_retired && m.all_units_done();
      if (!row.ok) row.violation = "async run incomplete";
      row.extra.emplace_back("fd_notices", std::to_string(m.fd_notices));
      if (m.net_dropped) row.extra.emplace_back("net_dropped", std::to_string(m.net_dropped));
      if (m.net_blocked) row.extra.emplace_back("net_blocked", std::to_string(m.net_blocked));
      return;
    }
    case Substrate::kSharedMem: {
      // A memory operation is not an Action: the simulator keys the kill list.
      std::vector<ScheduledFaults::Entry> crashes;
      if (const auto* sch = std::get_if<ScheduledSpec>(&s.faults.crash))
        crashes = sch->entries;
      else if (s.faults.kind() != FaultSpec::Kind::kNone)
        throw std::invalid_argument("sharedmem substrate: takes only none or scheduled(...)");
      if (!s.faults.net.is_noop())
        throw std::invalid_argument("sharedmem substrate: network weather does not apply");
      SharedMetrics m = run_write_all(s.cfg, std::move(crashes));
      row.work = m.work_total;
      row.messages = m.reads + m.writes;  // memory ops play the message role
      row.effort = m.effort();
      row.crashes = m.crashes;
      row.last_round = Round{m.last_round};
      row.rounds = std::to_string(m.last_round);
      row.ok = m.all_retired && m.all_units_done();
      if (!row.ok) row.violation = "shared-memory run incomplete";
      row.extra.emplace_back("reads", std::to_string(m.reads));
      row.extra.emplace_back("writes", std::to_string(m.writes));
      return;
    }
    case Substrate::kDynamic: {
      DynamicConfig cfg;
      cfg.t = s.cfg.t;
      const std::int64_t batches = s.param_or("batches", 6);
      const std::int64_t per_batch = s.param_or("per_batch", 4 * s.cfg.t);
      const std::uint64_t gap = static_cast<std::uint64_t>(s.param_or("gap", 25));
      cfg.max_units = batches * per_batch;
      cfg.horizon = gap * static_cast<std::uint64_t>(batches) + 8;
      std::int64_t next = 1;
      for (std::int64_t b = 0; b < batches; ++b) {
        Arrival a;
        a.round = gap * static_cast<std::uint64_t>(b);
        a.proc = static_cast<int>(b % cfg.t);
        for (std::int64_t k = 0; k < per_batch; ++k) a.units.push_back(next++);
        cfg.arrivals.push_back(a);
      }
      DynamicRunResult r = run_dynamic_do_all(cfg, make_injector(s, rep), run_options(s, rep));
      row.work = r.metrics.work_total;
      row.messages = r.metrics.messages_total;
      row.effort = r.metrics.effort();
      row.crashes = r.metrics.crashes;
      row.last_round = r.metrics.last_retire_round;
      row.rounds = format_round(r.metrics.last_retire_round);
      row.ok = r.ok();
      row.violation = r.violation;
      row.extra.emplace_back("lost_units", std::to_string(r.lost_units.size()));
      return;
    }
  }
  throw std::logic_error("run_one_rep: bad substrate");
}

// Bound-margin reporting (opt-in; the adversary_search and network
// families).  Every "bound_work*" / "bound_msgs*" / "bound_rounds*" param is
// compared against its measured column and adds a bound_margin_* extra
// holding the percent of the bound consumed (rounded up, so 100 can mean
// "tight" but never "over") -- the group reduction's max is then the least
// headroom.  Under params["assert_bounds"] = 1 exceeding a bound also flips
// the row to a violation (the crash-fault theorems quantify over *every*
// adversary, so an adaptive execution above a bound is a finding, not
// noise).  Under params["report_bounds"] = 1 the margins are informational
// only: network faults sit outside the crash-only theorems, so a >100%
// margin there measures degradation, not a refutation.
void assert_bounds(const Scenario& s, ScenarioResult& row, bool flip_ok) {
  auto check = [&](const std::string& key, std::int64_t bound, const char* measure,
                   std::uint64_t measured, bool fits) {
    const std::uint64_t b = static_cast<std::uint64_t>(bound);
    if (flip_ok && (!fits || measured > b)) {
      row.ok = false;
      const std::string amount = fits ? std::to_string(measured) : row.rounds;
      if (!row.violation.empty()) row.violation += "; ";
      row.violation += std::string(measure) + " " + amount + " exceeds " + key + "=" +
                       std::to_string(bound);
    }
    const std::uint64_t pct = fits ? (measured * 100 + b - 1) / b : 0;
    row.extra.emplace_back(std::string("bound_margin_") + measure,
                           fits ? std::to_string(pct) : "overflow");
  };
  for (const auto& [key, bound] : s.params) {
    if (bound <= 0) continue;
    if (key.rfind("bound_work", 0) == 0) {
      check(key, bound, "work", row.work, true);
    } else if (key.rfind("bound_msgs", 0) == 0) {
      check(key, bound, "msgs", row.messages, true);
    } else if (key.rfind("bound_rounds", 0) == 0) {
      // Rounds are exact (possibly promoted past u64, in which case any
      // int64 bound is certainly exceeded).
      const bool fits = row.last_round.fits_u64();
      check(key, bound, "rounds", fits ? row.last_round.to_u64_saturating() : 0, fits);
    }
  }
}

}  // namespace

std::vector<ScenarioResult> run_scenario(const std::string& experiment, const Scenario& s) {
  std::vector<ScenarioResult> rows;
  rows.reserve(static_cast<std::size_t>(s.repetitions));
  for (int rep = 0; rep < s.repetitions; ++rep) {
    ScenarioResult row;
    row.experiment = experiment;
    row.id = s.id;
    row.group = s.group.empty() ? s.id : s.group;
    row.protocol = s.protocol;
    row.substrate = to_string(s.substrate);
    row.faults = s.faults.to_string();
    row.n = s.cfg.n;
    row.t = s.cfg.t;
    row.seed = s.seed;
    row.rep = rep;
    const auto start = std::chrono::steady_clock::now();
    try {
      run_one_rep(s, rep, row);
    } catch (const std::exception& e) {
      row.ok = false;
      row.violation = e.what();
    }
    row.wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    // Paper-bound columns ride along on every row of the group, under their
    // full bound_* name (stripping the prefix would collide with the fixed
    // msgs/rounds columns).
    for (const auto& [key, value] : s.params)
      if (key.rfind("bound_", 0) == 0)
        row.extra.emplace_back(key, with_commas(static_cast<std::uint64_t>(value)));
    // Opt-in bound assertion + bound_margin_* columns (adversary_search),
    // or margins-only reporting (the network families).
    if (s.param_or("assert_bounds", 0) == 1)
      assert_bounds(s, row, /*flip_ok=*/true);
    else if (s.param_or("report_bounds", 0) == 1)
      assert_bounds(s, row, /*flip_ok=*/false);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace dowork::harness
