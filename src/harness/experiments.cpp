#include "harness/experiments.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string_view>

#include "adversary/strategies.h"
#include "fuzz/generator.h"
#include "harness/bounds.h"

namespace dowork::harness {

namespace {

Scenario sync_scenario(std::string group, std::string protocol, std::int64_t n, int t,
                       FaultSpec faults, int reps = 1) {
  Scenario s;
  s.group = std::move(group);
  s.substrate = Substrate::kSync;
  s.protocol = std::move(protocol);
  s.cfg = DoAllConfig{n, t};
  s.faults = std::move(faults);
  s.repetitions = reps;
  s.id = s.group + "/" + s.faults.to_string();
  return s;
}

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

// Sets s's bound params from the audited bound library (harness/bounds.h:
// Theorems 2.3, 2.8, 3.8 and 4.1) at s's protocol and shape, against the
// crash budget of its faults: the params named in `keys`, or all of them
// when `keys` is empty.  Throws std::logic_error for a key the library does
// not emit, so a misspelt key cannot silently drop a bound.
void add_paper_bounds(Scenario& s, std::initializer_list<std::string_view> keys = {}) {
  std::size_t copied = 0;
  for (const auto& [key, value] :
       paper_bounds(s.protocol, s.cfg.n, s.cfg.t, fuzz::crash_budget_of(s.faults))) {
    if (keys.size() > 0 && std::find(keys.begin(), keys.end(), key) == keys.end()) continue;
    s.params[key] = value;
    ++copied;
  }
  if (keys.size() > 0 && copied != keys.size())
    throw std::logic_error("add_paper_bounds: no such bound key for protocol " + s.protocol);
}

// The worst-case adversary the seed benches used for the sequential
// protocols: a takeover cascade crashing each active worker one chunk in,
// its broadcast truncated to a single recipient.
FaultSpec chunk_cascade(std::int64_t n, int t) {
  return FaultSpec::cascade(u(ceil_div(n, int_sqrt_ceil(t)) + 1), t - 1, /*prefix=*/1);
}

// The async rows' schedule: processes 0..crashes-1 each die on their
// (ceil(n/t) + 3)-th step, the unit completing and two sends escaping.
FaultSpec async_crashes(std::int64_t n, int t, int crashes) {
  return FaultSpec::first_procs_crash(crashes, u(ceil_div(n, t) + 3), CrashPlan{true, 2});
}

// --- F1: checkpoint-frequency sweep ----------------------------------------

std::vector<Scenario> checkpoint_sweep_scenarios() {
  const int t = 32;
  const std::int64_t n = 1024;
  std::vector<Scenario> out;
  for (std::int64_t k : {1, 2, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 1024}) {
    const std::int64_t per = std::max<std::int64_t>(1, n / k);
    Scenario s = sync_scenario("k=" + std::to_string(k), "baseline_checkpoint", n, t,
                               FaultSpec::cascade(u(per), t - 1, 0));
    s.params["protocol_param"] = per;
    s.params["bound_units_per_ckpt"] = per;
    s.id = s.group + "/per=" + std::to_string(per);
    out.push_back(std::move(s));
  }
  // Protocol A's two-level checkpointing on the same adversary family.
  out.push_back(sync_scenario("protocol_A", "A", n, t,
                              FaultSpec::cascade(u(ceil_div(n, t)), t - 1, 0)));
  return out;
}

// --- T1: trivial baselines -------------------------------------------------

std::vector<Scenario> baselines_scenarios() {
  std::vector<Scenario> out;
  for (int t : {4, 8, 16, 32, 64}) {
    const std::int64_t n = 1024;
    for (const char* proto : {"baseline_all", "baseline_checkpoint", "A"}) {
      const bool all = std::string(proto) == "baseline_all";
      Scenario s = sync_scenario("t=" + std::to_string(t) + "/" + proto, proto, n, t,
                                 all ? FaultSpec::none() : chunk_cascade(n, t));
      s.params["bound_effort_tn"] = t * n;
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- T2 / T3: Protocols A and B vs their theorem bounds ---------------------

std::vector<Scenario> protocol_bounds_scenarios(const std::string& proto) {
  std::vector<Scenario> out;
  for (int t : {4, 9, 16, 25, 36, 49, 64, 100}) {
    const std::int64_t n = 16 * t;
    const std::string group = "t=" + std::to_string(t);
    auto add = [&](Scenario s) {
      add_paper_bounds(s);  // Theorem 2.3 / 2.8
      out.push_back(std::move(s));
    };
    for (std::int64_t units : {std::int64_t{1}, ceil_div(n, t), ceil_div(n, int_sqrt_ceil(t))}) {
      for (std::size_t prefix : {std::size_t{0}, std::size_t{1}})
        add(sync_scenario(group, proto, n, t, FaultSpec::cascade(u(units), t - 1, prefix)));
    }
    add(sync_scenario(group, proto, n, t, FaultSpec::random(0.05, t - 1, 0), /*reps=*/8));
  }
  return out;
}

// --- T4: Protocol C --------------------------------------------------------

std::vector<Scenario> protocol_c_scenarios() {
  std::vector<Scenario> out;
  for (int t : {4, 8, 16, 32, 64}) {
    const std::int64_t n = 4 * t;
    for (const char* proto : {"C", "C_batch"}) {
      const std::string group = "t=" + std::to_string(t) + "/" + proto;
      const std::int64_t T = pow2_ceil(t);
      const std::int64_t L = std::max(1, log2_of_pow2(pow2_ceil(t)));
      auto add = [&](Scenario s) {
        s.params["bound_work_n_2t"] = n + 2 * t;
        s.params["bound_msgs_n_8TlogT"] = n + 8 * T * L;
        out.push_back(std::move(s));
      };
      add(sync_scenario(group, proto, n, t, FaultSpec::none()));
      add(sync_scenario(group, proto, n, t, FaultSpec::cascade(1, t - 1, 0)));
      add(sync_scenario(group, proto, n, t, FaultSpec::cascade(u(ceil_div(n, t)), t - 1, 1)));
      add(sync_scenario(group, proto, n, t, FaultSpec::random(0.05, t - 1, 0), /*reps=*/4));
    }
  }
  return out;
}

// --- T5 / F4 / T5b / T10: Protocol D family ---------------------------------

std::vector<Scenario> protocol_d_scenarios() {
  std::vector<Scenario> out;
  // T5: graceful degradation with f scheduled crashes (case 1).
  for (int t : {4, 8, 16, 32}) {
    const std::int64_t n = 32 * t;
    for (int f : std::set<int>{0, 1, t / 4, t / 2}) {
      std::vector<ScheduledFaults::Entry> entries;
      for (int p = 0; p < f; ++p)
        entries.push_back({p, u(1 + 2 * p), CrashPlan{true, 0}});
      Scenario s = sync_scenario("T5/t=" + std::to_string(t) + "/f=" + std::to_string(f), "D",
                                 n, t, FaultSpec::scheduled(std::move(entries)));
      add_paper_bounds(s);
      out.push_back(std::move(s));
    }
  }
  // F4: rounds vs f at fixed shape (n=4096, t=16).
  for (int f = 0; f <= 15; ++f) {
    std::vector<ScheduledFaults::Entry> entries;
    for (int p = 0; p < f; ++p) entries.push_back({p, u(3 + 5 * p), CrashPlan{true, 0}});
    Scenario s = sync_scenario("F4/f=" + std::to_string(f), "D", 4096, 16,
                               FaultSpec::scheduled(std::move(entries)));
    add_paper_bounds(s, {"bound_rounds"});
    out.push_back(std::move(s));
  }
  // T5b: majority loss in phase 1 reverts to Protocol A (case 2).
  for (int t : {8, 16, 32}) {
    const std::int64_t n = 16 * t;
    const int kill = t / 2 + 1;
    std::vector<ScheduledFaults::Entry> entries;
    for (int p = 0; p < kill; ++p) entries.push_back({p, 2, CrashPlan{true, 0}});
    Scenario s = sync_scenario("T5b/t=" + std::to_string(t), "D", n, t,
                               FaultSpec::scheduled(std::move(entries)));
    s.params["bound_work_4n"] = 4 * n;
    out.push_back(std::move(s));
  }
  // T10: coordinator agreement variant, failure-free and coordinator-dies.
  for (int t : {8, 16, 32}) {
    const std::int64_t n = 16 * t;
    for (const char* proto : {"D", "D_coord"}) {
      out.push_back(sync_scenario("T10/t=" + std::to_string(t) + "/ff/" + proto, proto, n, t,
                                  FaultSpec::none()));
      out.push_back(sync_scenario(
          "T10/t=" + std::to_string(t) + "/coord_dies/" + proto, proto, n, t,
          FaultSpec::scheduled({{0, u(n / t + 1), CrashPlan{false, 2}}})));
    }
  }
  return out;
}

// --- F5: rounds-to-completion, A vs B --------------------------------------

std::vector<Scenario> time_a_vs_b_scenarios() {
  std::vector<Scenario> out;
  for (int t : {4, 16, 36, 64, 100, 144}) {
    const std::int64_t n = 64 * t;
    for (const char* proto : {"A", "B"}) {
      Scenario s = sync_scenario("t=" + std::to_string(t) + "/" + proto, proto, n, t,
                                 FaultSpec::cascade(1, t - 1, 0));
      add_paper_bounds(s, {"bound_rounds"});
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- F2: effort landscape across all protocols ------------------------------

std::vector<Scenario> effort_comparison_scenarios() {
  std::vector<Scenario> out;
  for (int t : {8, 16, 32, 64}) {
    const std::int64_t n = 4 * t;  // keeps n + t within Protocol C's 512-bit budget
    for (const char* proto :
         {"baseline_all", "baseline_checkpoint", "A", "B", "C", "C_batch", "D"}) {
      FaultSpec faults;
      if (std::string(proto) == "baseline_all")
        faults = FaultSpec::none();  // its worst case is failure-free
      else if (std::string(proto) == "D")
        faults = FaultSpec::cascade(2, std::max(1, t / 2 - 1), 0);
      else
        faults = chunk_cascade(n, t);
      out.push_back(
          sync_scenario("t=" + std::to_string(t) + "/" + proto, proto, n, t, faults));
    }
  }
  return out;
}

// --- F3: naive most-knowledgeable takeover vs Protocol C --------------------

std::vector<Scenario> ablation_naive_c_scenarios() {
  std::vector<Scenario> out;
  for (int t : {8, 16, 32, 64}) {
    const std::int64_t n = t - 1;  // the paper's scenario shape
    for (const char* proto : {"naive_C", "C"}) {
      Scenario s = sync_scenario("t=" + std::to_string(t) + "/" + proto, proto, n, t,
                                 FaultSpec::on_unit(n, t - 1));
      s.params["bound_work_n_2t"] = n + 2 * t;
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- adversary_search: adaptive-adversary tournament -------------------------
//
// Every other family replays scripted adversaries; this one lets the
// adaptive strategies of src/adversary/ fight back.  Per protocol and shape
// it runs two groups at identical (n, t, crash budget):
//   */scripted  -- the hand-crafted worst-case cascade the other families
//                  trust (chunk cascade for A/B/C, the two-unit cascade for
//                  D), as the floor the tournament must dominate;
//   */adaptive  -- every registered strategy (the restart search with 6
//                  seeded repetitions), reduced to the worst row.
// All rows carry assert_bounds: work/messages/rounds are checked against
// the paper bounds per row (an adaptive execution above a bound would be a
// real finding -- the theorems quantify over every adversary) and reported
// as bound_margin_* columns (percent of the bound consumed).
std::vector<Scenario> adversary_search_scenarios() {
  std::vector<Scenario> out;
  for (int t : {16, 64}) {
    const std::string ts = "t=" + std::to_string(t);
    auto add_protocol = [&](const char* proto, std::int64_t n, int budget,
                            FaultSpec scripted) {
      // The tournament's oracle is the shared audited bound library
      // (harness/bounds.h) -- the same formulas the fuzz campaign asserts.
      auto fill = [&](Scenario s) {
        s.params["assert_bounds"] = 1;
        add_paper_bounds(s);
        out.push_back(std::move(s));
      };
      fill(sync_scenario(ts + "/" + proto + "/scripted", proto, n, t, std::move(scripted)));
      for (const adversary::StrategyInfo& strategy : adversary::all_strategies()) {
        // Network strategies spend a message-fault budget, not crashes; the
        // crash tournament skips them (the network groups below field them).
        if (strategy.network) continue;
        fill(sync_scenario(ts + "/" + proto + "/adaptive", proto, n, t,
                           FaultSpec::adaptive(strategy.name, budget, /*seed=*/1),
                           /*reps=*/strategy.stochastic ? 6 : 1));
      }
    };
    {
      const std::int64_t n = 16 * t;
      add_protocol("A", n, t - 1, chunk_cascade(n, t));
      add_protocol("B", n, t - 1, chunk_cascade(n, t));
    }
    {
      // Protocol C's time bound is exponential in n + t: no bound_rounds row
      // (the shape keeps n + t within the 512-bit deadline budget instead).
      const std::int64_t n = 4 * t;
      add_protocol("C", n, t - 1, chunk_cascade(n, t));
    }
    {
      // Minority budget: Theorem 4.1 case 1 (a majority loss would move the
      // goalposts to the case-2 revert bounds).
      const std::int64_t n = 16 * t;
      const int f = std::max(1, t / 2 - 1);
      add_protocol("D", n, f, FaultSpec::cascade(2, f, 0));
    }
  }
  // Network tournament, appended after every crash group so the crash rows
  // keep their historical order.  The jammer spends a message-fault budget
  // (jam=t) instead of crashes, dropping the most-knowledgeable announcer's
  // broadcasts at decision point 4; margins are report-only because the
  // crash-only theorems don't quantify over message loss -- a >100% margin
  // here measures degradation, not a refutation.
  for (int t : {16, 64}) {
    const std::int64_t n = 16 * t;
    for (const char* proto : {"A", "B"}) {
      Scenario s = sync_scenario("net/t=" + std::to_string(t) + "/" + proto + "/jammer", proto,
                                 n, t, FaultSpec::adaptive("jammer", 0, /*seed=*/1, /*jam=*/t));
      s.params["report_bounds"] = 1;
      add_paper_bounds(s, {"bound_work_3n", "bound_msgs"});
      out.push_back(std::move(s));
    }
  }
  // Async weather rows: the same bound-margin reporting on the asynchronous
  // substrate, under seeded link loss (the detector is weather-proof, so the
  // runs complete; lost announcements surface as redone work).
  {
    const std::int64_t n = 256;
    const int t = 16;
    for (int pct : {2, 10}) {
      Scenario s;
      s.group = "net/async/drop=" + std::to_string(pct) + "%";
      s.substrate = Substrate::kAsync;
      s.protocol = "A_async";
      s.cfg = DoAllConfig{n, t};
      s.seed = u(900 + pct);
      const NetSpec net = NetSpec::lossy(pct / 100.0, u(pct));
      s.id = s.group + "/" + FaultSpec::none().with_net(net).to_string();
      s.faults = async_crashes(n, t, t / 2).with_net(net);
      s.repetitions = 2;
      s.params["max_delay"] = 10;
      s.params["report_bounds"] = 1;
      s.params["bound_work_3n"] = 3 * n;
      s.params["bound_msgs_9tsqrt"] = 9 * t * int_sqrt_ceil(t);
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- wan_latency / lossy_link / partition_heal: network-realism families -----
//
// The network counterpart of the crash families: the same protocols under
// weather the paper's model rules out.  Protocols A and B carry these
// families because their correctness is deadline-driven -- a silent
// predecessor is indistinguishable from a crashed one, so lost or late
// checkpoints cost redone work and time, never completion.  (Protocol C
// trusts poll replies and Protocol D trusts agreement traffic, so weather
// can starve them; their network behavior is a finding for a later PR, not
// a regression suite.)  Every row reports bound margins against the
// crash-only theorems (report_bounds: informational, a >100% margin is
// measured degradation) so the tables quantify what weather costs.

std::vector<Scenario> wan_latency_scenarios() {
  std::vector<Scenario> out;
  const std::int64_t n = 256;
  const int t = 16;
  const std::int64_t s_ = int_sqrt_ceil(t);
  // Sync: every broadcast pays an extra uniform uplink delay in whole
  // rounds; composed with the worst-case cascade to show crash + net
  // weather in one spec.
  for (const char* proto : {"A", "B"}) {
    for (std::int64_t hi : {2, 8}) {
      Scenario s = sync_scenario(
          std::string("sync/") + proto + "/lat=1.." + std::to_string(hi), proto, n, t,
          FaultSpec::none().with_net(NetSpec::latency(1, hi, u(hi))));
      s.params["report_bounds"] = 1;
      add_paper_bounds(s);
      out.push_back(std::move(s));
    }
    Scenario s = sync_scenario(std::string("sync/") + proto + "/cascade+lat", proto, n, t,
                               chunk_cascade(n, t).with_net(NetSpec::latency(1, 4, 5)));
    s.params["report_bounds"] = 1;
    add_paper_bounds(s);
    out.push_back(std::move(s));
  }
  // Async: the latency component replaces the substrate's delay knobs, so
  // this sweep is the honest WAN version of the async family's delay grid.
  for (std::int64_t hi : {20, 100}) {
    Scenario s;
    s.group = "async/lat=1.." + std::to_string(hi);
    s.substrate = Substrate::kAsync;
    s.protocol = "A_async";
    s.cfg = DoAllConfig{n, t};
    s.seed = u(7000 + hi);
    const NetSpec net = NetSpec::latency(1, hi, u(hi));
    s.id = s.group + "/" + FaultSpec::none().with_net(net).to_string();
    s.faults = async_crashes(n, t, t - 1).with_net(net);
    s.params["report_bounds"] = 1;
    s.params["bound_work_3n"] = 3 * n;
    s.params["bound_msgs_9tsqrt"] = 9 * t * s_;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Scenario> lossy_link_scenarios() {
  std::vector<Scenario> out;
  const std::int64_t n = 256;
  const int t = 16;
  for (const char* proto : {"A", "B"}) {
    for (int pct : {1, 5, 10}) {
      // Four seeded repetitions: rep r draws the weather from seed + r,
      // exactly like the seeded crash adversaries.
      Scenario s = sync_scenario(
          std::string("sync/") + proto + "/drop=" + std::to_string(pct) + "%", proto, n, t,
          FaultSpec::none().with_net(NetSpec::lossy(pct / 100.0, u(pct))), /*reps=*/4);
      s.params["report_bounds"] = 1;
      add_paper_bounds(s, {"bound_work_3n", "bound_msgs"});
      out.push_back(std::move(s));
    }
    // Crash cascade and link loss composed: the adversary the paper allows
    // plus the one it doesn't, in a single two-component spec.
    Scenario s = sync_scenario(std::string("sync/") + proto + "/cascade+drop", proto, n, t,
                               chunk_cascade(n, t).with_net(NetSpec::lossy(0.05, 11)),
                               /*reps=*/4);
    s.params["report_bounds"] = 1;
    add_paper_bounds(s, {"bound_work_3n", "bound_msgs"});
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Scenario> partition_heal_scenarios() {
  std::vector<Scenario> out;
  const std::int64_t n = 256;
  const int t = 16;
  // Windows are in stepped rounds; Protocol A's first takeover deadline is
  // ~n/t rounds in, so the early window hides the initial checkpoints and
  // the late window tests recovery after real progress.
  struct Cut {
    const char* name;
    std::vector<PartitionWindow> windows;
  };
  const std::vector<Cut> cuts = {
      {"early", {{4, 24, 8}}},
      {"late", {{40, 80, 8}}},
      {"repeated", {{4, 24, 8}, {48, 64, 4}}},
      {"minority", {{8, 48, 2}}},
  };
  for (const char* proto : {"A", "B"}) {
    for (const Cut& cut : cuts) {
      Scenario s = sync_scenario(
          std::string("sync/") + proto + "/" + cut.name, proto, n, t,
          FaultSpec::none().with_net(NetSpec::partition(cut.windows, 0)));
      s.params["report_bounds"] = 1;
      add_paper_bounds(s);
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- T6: Byzantine agreement over the work protocols ------------------------

std::vector<Scenario> byzantine_scenarios() {
  std::vector<Scenario> out;
  struct Shape {
    int n, t;
  };
  for (Shape sh : {Shape{64, 8}, Shape{144, 12}, Shape{256, 16}, Shape{128, 32}}) {
    for (const char* proto : {"A", "B", "C"}) {
      const std::string group =
          "n=" + std::to_string(sh.n) + "/t=" + std::to_string(sh.t) + "/" + proto;
      const std::int64_t bound_msgs = byzantine_msgs_bound(proto, sh.n, sh.t);
      auto add = [&](FaultSpec faults, int reps = 1) {
        Scenario s;
        s.group = group;
        s.substrate = Substrate::kByzantine;
        s.protocol = proto;
        s.cfg = DoAllConfig{sh.n, sh.t};
        s.faults = std::move(faults);
        s.repetitions = reps;
        s.params["value"] = 5;
        s.params["bound_msgs"] = bound_msgs;
        s.id = group + "/" + s.faults.to_string();
        out.push_back(std::move(s));
      };
      add(FaultSpec::none());
      add(FaultSpec::scheduled({{0, 1, CrashPlan{false, static_cast<std::size_t>(sh.t / 2)}}}));
      add(FaultSpec::cascade(2, sh.t, 1));
      add(FaultSpec::random(0.03, sh.t, 0), /*reps=*/4);
    }
  }
  return out;
}

// --- T7: asynchronous Protocol A -------------------------------------------

std::vector<Scenario> async_scenarios() {
  std::vector<Scenario> out;
  const std::int64_t n = 256;
  const int t = 16;
  for (std::int64_t delay : {2, 10, 50}) {
    for (std::int64_t fd : {5, 25, 100}) {
      Scenario s;
      s.group = "delay=" + std::to_string(delay) + "/fd=" + std::to_string(fd);
      s.id = s.group;
      s.substrate = Substrate::kAsync;
      s.protocol = "A_async";
      s.cfg = DoAllConfig{n, t};
      s.seed = u(delay * 1000 + fd);
      s.params["max_delay"] = delay;
      s.params["fd_delay"] = fd;
      s.faults = async_crashes(n, t, t - 1);
      s.params["bound_work_3n"] = 3 * n;
      s.params["bound_msgs_9tsqrt"] = 9 * t * int_sqrt_ceil(t);
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- T9: dynamic workload --------------------------------------------------

std::vector<Scenario> dynamic_scenarios() {
  std::vector<Scenario> out;
  for (int t : {4, 8, 16}) {
    for (int crashes : {0, t / 4, t / 2}) {
      Scenario s;
      s.group = "t=" + std::to_string(t) + "/crashes=" + std::to_string(crashes);
      s.id = s.group;
      s.substrate = Substrate::kDynamic;
      s.protocol = "D_dynamic";
      s.cfg = DoAllConfig{/*n=*/1, t};  // workload shape comes from params
      s.faults = crashes == 0 ? FaultSpec::none() : FaultSpec::cascade(6, crashes, 0);
      s.params["batches"] = 6;
      s.params["per_batch"] = 4 * t;
      s.params["gap"] = 25;
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- T8 / F6: related models (APS contrast, shared memory) ------------------

std::vector<Scenario> related_models_scenarios() {
  std::vector<Scenario> out;
  // T8: effort vs available processor steps for the message-passing protocols
  // (the APS column rides in each row's extras).
  for (int t : {8, 16, 32}) {
    const std::int64_t n = 4 * t;
    for (const char* proto : {"A", "B", "C", "D"}) {
      FaultSpec faults = std::string(proto) == "D"
                             ? FaultSpec::cascade(2, std::max(1, t / 2 - 1), 0)
                             : chunk_cascade(n, t);
      out.push_back(
          sync_scenario("T8/t=" + std::to_string(t) + "/" + proto, proto, n, t, faults));
    }
  }
  // F6: the shared-memory progress-counter algorithm on the same shapes.
  for (int t : {8, 16, 32, 64}) {
    const std::int64_t n = 4 * t;
    Scenario s;
    s.group = "F6/t=" + std::to_string(t) + "/write_all";
    s.id = s.group;
    s.substrate = Substrate::kSharedMem;
    s.protocol = "write_all";
    s.cfg = DoAllConfig{n, t};
    s.faults = FaultSpec::first_procs_crash(t - 1, u(2 * ceil_div(n, t) + 3), CrashPlan{true, 0});
    s.params["bound_effort_2n_3t"] = 2 * n + 3 * t;
    out.push_back(std::move(s));
  }
  return out;
}

// --- scale: asymptotic separation sweep --------------------------------------
//
// The paper's message-complexity separations (A/B's O(t*sqrt(t)) vs C's
// n + 8t log t vs D's (4f+2)t^2, Theorem 2.3 / Corollary 3.9 / Theorem 4.1)
// only become visible at sizes far beyond the per-table experiments, so this
// family sweeps t = 64..16384 with n = 16t under worst-case cascades (the
// t = 2048 and 4096 rows were added once the two-tier Round and the lazy
// A/B plan made them affordable; t = 8192 and 16384 once the round-parallel
// core let --sim-threads soak the big rows).  Three model-imposed caveats,
// documented in DESIGN.md:
//   * Protocol C's deadlines are ~2^(n+t) rounds and must fit Round's
//     promoted 512-bit representation, so its rows ride at the largest
//     feasible shape (n = 440 - t, batched reports) and stop at t = 256 --
//     enough to show the t log t message curve against A/B's t*sqrt(t).
//   * Protocol D's message bill is (4f+2)t^2: its adversary uses a fixed
//     budget of f = 16 crashes so the sweep measures the t^2 growth rather
//     than drowning in an O(t^3) worst case.
//   * Protocol D stops at t = 8192 for now.  Its merge cache is O(n + t)
//     bits and reads each agreement round's ledger once, so the t = 8192
//     row runs in about a second serially (it took ~20 s while every
//     recipient walked its inbox); a t = 16384/D row is affordable but
//     changes this family's JSON, so it is added on its own.
std::vector<Scenario> scale_scenarios() {
  std::vector<Scenario> out;
  for (int t : {64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}) {
    const std::int64_t n = 16 * t;
    for (const char* proto : {"A", "B"}) {
      Scenario s = sync_scenario("t=" + std::to_string(t) + "/" + proto, proto, n, t,
                                 chunk_cascade(n, t));
      add_paper_bounds(s, {"bound_work_3n", "bound_msgs"});
      out.push_back(std::move(s));
    }
    if (t <= 8192) {
      const int f = std::min(t / 2 - 1, 16);
      Scenario s = sync_scenario("t=" + std::to_string(t) + "/D", "D", n, t,
                                 FaultSpec::cascade(2, f, 0));
      add_paper_bounds(s, {"bound_work_2n", "bound_msgs"});
      out.push_back(std::move(s));
    }
    if (t <= 256) {
      const std::int64_t cn = 440 - t;  // 512-bit deadline budget: n + t <= 440
      Scenario s = sync_scenario("t=" + std::to_string(t) + "/C_batch", "C_batch", cn, t,
                                 FaultSpec::cascade(1, t - 1, 0));
      s.params["bound_work_n_2t"] = cn + 2 * t;
      add_paper_bounds(s, {"bound_msgs"});
      out.push_back(std::move(s));
    }
  }
  return out;
}

// --- sim_microbench: substrate throughput guard ------------------------------
//
// The successor of the free-standing google-benchmark binary: the same
// end-to-end protocol sweeps, expressed as registry scenarios so they run
// through the harness, ctest and the determinism diff like every other
// experiment.  (The old binary's BigUint arithmetic microbenches are covered
// by tests/round_test.cpp's promotion-boundary suite; every row here
// exercises Round arithmetic on the simulator hot path anyway.)
std::vector<Scenario> sim_microbench_scenarios() {
  std::vector<Scenario> out;
  for (int t : {16, 64, 256})
    out.push_back(sync_scenario("A_ff/t=" + std::to_string(t), "A", 16 * t, t,
                                FaultSpec::none()));
  for (int t : {16, 64})
    out.push_back(sync_scenario("B_cascade/t=" + std::to_string(t), "B", 16 * t, t,
                                FaultSpec::cascade(1, t - 1, 0)));
  for (int t : {8, 32})
    out.push_back(sync_scenario("C_cascade/t=" + std::to_string(t), "C", 4 * t, t,
                                FaultSpec::cascade(1, t - 1, 0)));
  for (int t : {8, 32})
    out.push_back(sync_scenario("D_ff/t=" + std::to_string(t), "D", 64 * t, t,
                                FaultSpec::none()));
  return out;
}

// --- differential / live_throughput: the live backends ----------------------

// The simulator as differential oracle (src/substrate/differential.h): the
// deterministic groups run every case on the simulator and a live backend
// (det/: the supervised round pool) and fail the row on any metric
// divergence; the free groups surrender the commit order to the OS
// scheduler (free/: the pool's free schedule) -- no equality oracle exists
// there, so each row asserts its paper bounds and the verifier instead.
// Free rows are nondeterministic by design: keep this family out of
// byte-identity comparisons.
std::vector<Scenario> differential_scenarios() {
  std::vector<Scenario> out;
  for (int t : {16, 64}) {
    const std::string ts = "det/t=" + std::to_string(t);
    auto add = [&](const char* proto, std::int64_t n, FaultSpec faults) {
      Scenario s = sync_scenario(ts + "/" + proto, proto, n, t, std::move(faults));
      s.substrate = Substrate::kDifferential;
      s.backend = Backend::kPool;
      out.push_back(std::move(s));
    };
    const std::int64_t n = 16 * t;
    const int f = std::max(1, t / 2 - 1);
    add("A", n, chunk_cascade(n, t));
    add("A", n, FaultSpec::adaptive("greedy", t - 1, /*seed=*/1));
    add("B", n, chunk_cascade(n, t));
    add("B", n, FaultSpec::adaptive("chain", t - 1, /*seed=*/1));
    // C's shape keeps n + t inside the 512-bit deadline budget; its
    // exponential idle stretches fast-forward identically on both backends.
    add("C", 4 * t, chunk_cascade(4 * t, t));
    add("D", n, FaultSpec::cascade(2, f, 0));
    add("D", n, FaultSpec::adaptive("greedy", f, /*seed=*/1));
  }
  for (int t : {16, 64}) {
    const std::string ts = "free/t=" + std::to_string(t);
    auto add = [&](const char* proto, std::int64_t n, FaultSpec faults) {
      Scenario s = sync_scenario(ts + "/" + proto, proto, n, t, std::move(faults));
      s.substrate = Substrate::kLive;
      s.backend = Backend::kPool;
      s.params["free_sched"] = 1;
      s.params["assert_bounds"] = 1;
      add_paper_bounds(s);
      out.push_back(std::move(s));
    };
    const std::int64_t n = 16 * t;
    const int f = std::max(1, t / 2 - 1);
    add("A", n, chunk_cascade(n, t));
    add("B", n, chunk_cascade(n, t));
    add("C", 4 * t, chunk_cascade(4 * t, t));
    add("D", n, FaultSpec::cascade(2, f, 0));
  }
  // Socket-process legs of the same oracle: identical shapes and
  // adversaries, but the non-oracle leg runs one worker OS process per
  // protocol process (Backend::kSocket), so crashes are real SIGKILLs
  // and the barrier crosses a kernel socket.  Group names deliberately use
  // "det-tN"/"free-tN" (no slash after det/free): --filter det/ and
  // --filter free/ keep selecting the pool rows only, --filter socket/
  // selects exactly these.
  for (int t : {16, 64}) {
    const std::string ts = "socket/det-t" + std::to_string(t);
    auto add = [&](const std::string& name, const char* proto, std::int64_t n,
                   FaultSpec faults) {
      Scenario s = sync_scenario(ts + "/" + name, proto, n, t, std::move(faults));
      s.substrate = Substrate::kDifferential;
      s.backend = Backend::kSocket;
      out.push_back(std::move(s));
    };
    const std::int64_t n = 16 * t;
    const int f = std::max(1, t / 2 - 1);
    add("A", "A", n, chunk_cascade(n, t));
    add("A", "A", n, FaultSpec::adaptive("greedy", t - 1, /*seed=*/1));
    add("B", "B", n, chunk_cascade(n, t));
    add("B", "B", n, FaultSpec::adaptive("chain", t - 1, /*seed=*/1));
    add("C", "C", 4 * t, chunk_cascade(4 * t, t));
    add("D", "D", n, FaultSpec::cascade(2, f, 0));
    add("D", "D", n, FaultSpec::adaptive("greedy", f, /*seed=*/1));
    // One TCP row per shape keeps the 127.0.0.1 transport honest in the
    // same sweep (everything else defaults to Unix-domain sockets).
    {
      Scenario s = sync_scenario(ts + "/B-tcp", "B", n, t, chunk_cascade(n, t));
      s.substrate = Substrate::kDifferential;
      s.backend = Backend::kSocket;
      s.params["transport_tcp"] = 1;
      out.push_back(std::move(s));
    }
  }
  for (int t : {16, 64}) {
    const std::string ts = "socket/free-t" + std::to_string(t);
    auto add = [&](const char* proto, std::int64_t n, FaultSpec faults) {
      Scenario s = sync_scenario(ts + "/" + proto, proto, n, t, std::move(faults));
      s.substrate = Substrate::kLive;
      s.backend = Backend::kSocket;
      s.params["free_sched"] = 1;
      s.params["assert_bounds"] = 1;
      add_paper_bounds(s);
      out.push_back(std::move(s));
    };
    const std::int64_t n = 16 * t;
    const int f = std::max(1, t / 2 - 1);
    add("A", n, chunk_cascade(n, t));
    add("B", n, chunk_cascade(n, t));
    add("C", 4 * t, chunk_cascade(4 * t, t));
    add("D", n, FaultSpec::cascade(2, f, 0));
  }
  return out;
}

// Real units/sec on the supervised round pool next to the same shapes'
// serial simulated rows: sim/live scenario pairs whose deterministic row
// data is byte-identical (the oracle contract); the live rows additionally
// carry units_per_sec in the --timing section.
std::vector<Scenario> live_throughput_scenarios() {
  std::vector<Scenario> out;
  for (int t : {16, 64}) {
    const std::int64_t n = 16 * t;
    const int f = std::max(1, t / 2 - 1);
    for (const char* proto : {"A", "B", "D"}) {
      const FaultSpec cascade =
          std::string(proto) == "D" ? FaultSpec::cascade(2, f, 0) : chunk_cascade(n, t);
      for (const bool live : {false, true}) {
        const std::string backend = live ? "live" : "sim";
        for (const FaultSpec& faults : {FaultSpec::none(), cascade}) {
          Scenario s = sync_scenario(backend + "/t=" + std::to_string(t) + "/" + proto, proto,
                                     n, t, faults);
          if (live) {
            s.substrate = Substrate::kLive;
            s.backend = Backend::kPool;
          }
          out.push_back(std::move(s));
        }
      }
    }
  }
  return out;
}

// --- smoke: one quick scenario per substrate, for CI artifacts --------------

std::vector<Scenario> smoke_scenarios() {
  std::vector<Scenario> out;
  const std::int64_t n = 64;
  const int t = 8;
  for (const char* proto : {"baseline_all", "baseline_checkpoint", "A", "B", "C", "D"}) {
    out.push_back(sync_scenario(std::string("sync/") + proto, proto, n, t,
                                std::string(proto) == "baseline_all"
                                    ? FaultSpec::none()
                                    : FaultSpec::cascade(2, t / 2, 1)));
  }
  {
    Scenario s;
    s.group = "byzantine/B";
    s.id = s.group;
    s.substrate = Substrate::kByzantine;
    s.protocol = "B";
    s.cfg = DoAllConfig{16, 4};
    s.faults = FaultSpec::cascade(2, 4, 1);
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.group = "async/A";
    s.id = s.group;
    s.substrate = Substrate::kAsync;
    s.protocol = "A_async";
    s.cfg = DoAllConfig{n, t};
    s.seed = 7;
    s.params["max_delay"] = 5;
    s.params["fd_delay"] = 10;
    s.faults = async_crashes(n, t, t / 2);
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.group = "sharedmem/write_all";
    s.id = s.group;
    s.substrate = Substrate::kSharedMem;
    s.protocol = "write_all";
    s.cfg = DoAllConfig{n, t};
    s.faults = FaultSpec::first_procs_crash(t - 1, u(2 * ceil_div(n, t) + 3), CrashPlan{true, 0});
    out.push_back(std::move(s));
  }
  {
    Scenario s;
    s.group = "dynamic/D";
    s.id = s.group;
    s.substrate = Substrate::kDynamic;
    s.protocol = "D_dynamic";
    s.cfg = DoAllConfig{1, 4};
    s.faults = FaultSpec::cascade(6, 2, 0);
    s.params["batches"] = 3;
    s.params["per_batch"] = 8;
    s.params["gap"] = 25;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

const std::vector<ExperimentInfo>& all_experiments() {
  static const std::vector<ExperimentInfo> kExperiments = {
      {"smoke", "CI smoke suite",
       "One quick scenario per protocol and substrate; the CI artifact.",
       smoke_scenarios},
      {"baselines", "T1 (Section 1)",
       "Both trivial baselines cost O(tn) effort; Protocol A achieves 3n work + "
       "9t*sqrt(t) messages.",
       baselines_scenarios},
      {"checkpoint_sweep", "F1 (Section 2 introduction)",
       "Checkpoint every n/k units => ~n*t/k redone work and ~t*k messages; the effort "
       "curve has an interior minimum between k=sqrt(t) and k=t, motivating Protocol A's "
       "two-level scheme.",
       checkpoint_sweep_scenarios},
      {"protocol_a", "T2 (Theorem 2.3)",
       "Protocol A: work <= 3n, messages <= 9t*sqrt(t), all retired by round nt + 3t^2; "
       "worst over cascade variants and 8 random schedules.",
       [] { return protocol_bounds_scenarios("A"); }},
      {"protocol_b", "T3 (Theorem 2.8)",
       "Protocol B keeps work <= 3n and messages <= 10t*sqrt(t) while retiring everyone "
       "by round 3n + 8t.",
       [] { return protocol_bounds_scenarios("B"); }},
      {"protocol_c", "T4 (Theorem 3.8, Corollary 3.9)",
       "Protocol C: work <= n + 2t, messages <= n + 8t log t (C_batch drops the n term); "
       "time exponential in n + t, simulated exactly via 512-bit fast-forward.",
       protocol_c_scenarios},
      {"protocol_d", "T5/F4/T5b/T10 (Theorem 4.1, Section 4)",
       "Protocol D: failure-free n/t + 2 rounds and 2t^2 messages; f failures cost work "
       "<= 2n, messages <= (4f+2)t^2, rounds <= (f+1)n/t + 4f + 2; majority loss reverts "
       "to Protocol A; the coordinator variant cuts failure-free messages to 2(t-1).",
       protocol_d_scenarios},
      {"time_a_vs_b", "F5 (Theorems 2.3c vs 2.8c)",
       "Protocol A's deadline cascade costs Theta(nt + t^2) rounds; Protocol B's "
       "message-relative timeouts bring it to 3n + 8t.",
       time_a_vs_b_scenarios},
      {"effort_comparison", "F2 (Sections 1 and 6)",
       "The protocol landscape under one cascade: baselines O(tn) effort, A/B 3n + "
       "O(t^1.5), C O(n + t log t), D trades t^2 messages for optimal time.",
       effort_comparison_scenarios},
      {"ablation_naive_c", "F3 (Section 3 introduction)",
       "Without fault detection the most-knowledgeable-takeover scheme pays Theta(n + "
       "t^2) work; Protocol C's pointer-guided polling stays at n + 2t.",
       ablation_naive_c_scenarios},
      {"adversary_search", "Adaptive tournament (Thms 2.3/2.8/3.8/4.1)",
       "Adaptive strategies (src/adversary/: chain, greedy, splitter, seeded restart "
       "search) fight A/B/C/D for the worst execution a crash budget buys: the adaptive "
       "worst case dominates the scripted cascade at the same shape, and every paper "
       "bound holds per row (bound_margin_* = percent of the bound consumed).",
       adversary_search_scenarios},
      {"byzantine", "T6 (Section 5)",
       "Byzantine agreement for crash faults via the work protocols: via A/B O(n + "
       "t*sqrt(t)) messages at O(n) rounds, via C O(n + t log t) messages at exponential "
       "time; agreement and validity under every crash schedule.",
       byzantine_scenarios},
      {"async", "T7 (Section 2.1 remark)",
       "With a sound and complete failure detector Protocol A runs fully asynchronously: "
       "work and messages keep the synchronous bounds, only completion time follows the "
       "delays.",
       async_scenarios},
      {"dynamic", "T9 (Sections 1 and 4)",
       "The dynamic extension of Protocol D absorbs work arriving over time at individual "
       "sites; announced work is never lost, never-gossiped arrivals die with their site.",
       dynamic_scenarios},
      {"scale", "Scale sweep (Thms 2.3, 2.8, 4.1; Cor 3.9)",
       "Asymptotics where the curves visibly diverge: t = 64..4096 at n = 16t under "
       "worst-case cascades; A/B stay within 3n work + O(t^1.5) messages, D pays "
       "(4f+2)t^2 messages for optimal time, C_batch (capped at the 512-bit deadline "
       "budget) tracks its t log t message bound.",
       scale_scenarios},
      {"related_models", "T8/F6 (Section 1.1)",
       "Effort vs available-processor-steps (Protocol C: effort-optimal, APS-astronomical) "
       "and the shared-memory progress counter whose effort hugs 2n + O(t).",
       related_models_scenarios},
      {"sim_microbench", "Substrate guard (no paper table)",
       "End-to-end throughput of the simulator substrate itself -- failure-free and "
       "cascade runs of A/B/C/D at small and medium shapes -- to catch harness "
       "performance regressions; wall-clock rides in the ms column and --timing.",
       sim_microbench_scenarios},
      {"differential", "Differential oracle (substrate equivalence)",
       "Identical (protocol, shape, FaultSpec, seed) cases on the simulator and a live "
       "backend -- the in-process round pool (det/, free/) and worker OS processes over "
       "localhost sockets (socket/): metric-for-metric equality under the deterministic "
       "schedule (scripted and adaptive adversaries, A/B/C/D at t=16,64, crashes as real "
       "SIGKILLs on the socket legs), and paper bounds + verifier under the free "
       "schedule where the OS scheduler is a real adversary.",
       differential_scenarios},
      {"live_throughput", "Live backend throughput (no paper table)",
       "Real units/sec on the supervised round pool beside the same shapes' serial "
       "simulated rows (A/B/D, failure-free and cascade): deterministic row data is "
       "byte-identical across backends; --timing carries wall-clock and units_per_sec.",
       live_throughput_scenarios},
      {"wan_latency", "Network realism: latency (outside the paper's model)",
       "A/B under uniform per-broadcast uplink delay (sync: whole extra rounds; async: "
       "the link-delay distribution itself), alone and composed with the worst-case "
       "cascade; bound_margin_* columns report what lateness costs against the "
       "synchronous theorems.",
       wan_latency_scenarios},
      {"lossy_link", "Network realism: loss (outside the paper's model)",
       "A/B under seeded per-link Bernoulli loss at 1-10%, alone and composed with the "
       "cascade: silence is indistinguishable from a crash, so lost checkpoints surface "
       "as redone work and late retirement, never incompletion; margins quantify the "
       "degradation.",
       lossy_link_scenarios},
      {"partition_heal", "Network realism: partitions (outside the paper's model)",
       "A/B across scheduled split/heal windows (early, late, repeated, minority cuts): "
       "the deadline discipline rides out every healed partition -- both sides redo "
       "work but the run completes, with bound margins reporting the price.",
       partition_heal_scenarios},
      {"fuzz_smoke", "Fuzz campaign smoke (every theorem, random shapes)",
       "The fuzzing campaign's first 100 seed-42 cases as a registry experiment: random "
       "valid (protocol, shape, FaultSpec v2) draws, every crash-only row asserting its "
       "paper bounds (src/harness/bounds.h) and every weather row reporting margins; any "
       "bound breach or invariant violation fails the row.",
       [] { return fuzz::generate_cases({42, 100}, 100); }},
  };
  return kExperiments;
}

const ExperimentInfo* find_experiment(const std::string& name) {
  for (const ExperimentInfo& e : all_experiments())
    if (e.name == name) return &e;
  return nullptr;
}

}  // namespace dowork::harness
