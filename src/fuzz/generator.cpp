#include "fuzz/generator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/work.h"
#include "harness/bounds.h"
#include "util/rng.h"

namespace dowork::fuzz {

namespace {

using harness::FaultSpec;
using harness::Scenario;
using harness::Substrate;

// Golden-ratio index mixing: case k draws from its own stream, independent
// of every other case, so any sub-range of a campaign regenerates
// identically.
std::uint64_t mix(std::uint64_t seed, int index) {
  return seed + 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index + 1);
}

int pick(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform(static_cast<std::uint64_t>(lo),
                                      static_cast<std::uint64_t>(hi)));
}

std::string pad5(int index) {
  std::string s = std::to_string(index);
  while (s.size() < 5) s.insert(s.begin(), '0');
  return s;
}

// The protocol whose bound set applies (the async substrate runs Protocol A
// under a failure detector; its work/message bounds are Protocol A's).
std::string bounds_protocol(const Scenario& s) {
  return s.substrate == Substrate::kAsync ? "A" : s.protocol;
}

bool has_message_fault_budget(const FaultSpec& spec) {
  if (const auto* a = std::get_if<harness::AdaptiveSpec>(&spec.crash))
    return a->max_message_faults > 0;
  return false;
}

// A broadcast-truncation prefix: nothing, everything, or a partial cut.
std::size_t pick_prefix(Rng& rng, int t) {
  switch (pick(rng, 0, 2)) {
    case 0: return 0;
    case 1: return static_cast<std::size_t>(-1);  // "all"
    default: return static_cast<std::size_t>(pick(rng, 0, t));
  }
}

FaultSpec pick_crash_spec(Rng& rng, const std::string& proto, std::int64_t n, int t,
                          int budget_cap) {
  const int roll = pick(rng, 0, 99);
  if (roll < 12 || budget_cap < 1) return FaultSpec::none();
  const int budget = pick(rng, 1, budget_cap);
  if (roll < 40) {
    const int units_hi = static_cast<int>(std::max<std::int64_t>(1, n / t)) + 2;
    return FaultSpec::cascade(static_cast<std::uint64_t>(pick(rng, 1, units_hi)), budget,
                              pick_prefix(rng, t), rng.chance(0.5));
  }
  if (roll < 55)
    return FaultSpec::on_unit(pick(rng, 1, static_cast<int>(std::min<std::int64_t>(n, 1000))),
                              budget, pick_prefix(rng, t));
  if (roll < 70)
    return FaultSpec::random(static_cast<double>(pick(rng, 1, 25)) / 100.0, budget,
                             rng.uniform(1, 1u << 20));
  if (roll < 82) {
    std::vector<ScheduledFaults::Entry> entries;
    const int count = pick(rng, 1, std::min(budget, 4));
    for (int i = 0; i < count; ++i) {
      ScheduledFaults::Entry e;
      e.proc = pick(rng, 0, t - 1);
      e.on_nth_action = static_cast<std::uint64_t>(pick(rng, 1, 6));
      e.plan.work_completes = rng.chance(0.5);
      e.plan.deliver_prefix = pick_prefix(rng, t);
      entries.push_back(e);
    }
    return FaultSpec::scheduled(std::move(entries));
  }
  // Adaptive strategies; the jammer (network adversary) is drawn separately
  // since it spends message faults, not crashes.
  static const char* kStrategies[] = {"chain", "greedy", "splitter", "restart"};
  const char* strategy = kStrategies[pick(rng, 0, 3)];
  // The splitter needs partition visibility but works on any protocol; all
  // four respect the crash budget by construction (adversary/adversary.h).
  (void)proto;
  return FaultSpec::adaptive(strategy, budget, rng.uniform(1, 1u << 20));
}

NetSpec pick_weather(Rng& rng, int t) {
  NetSpec net;
  if (rng.chance(0.5)) {
    net.lat_min = 1;
    net.lat_max = static_cast<std::uint64_t>(pick(rng, 2, 6));
  }
  if (rng.chance(0.4)) net.drop = static_cast<double>(pick(rng, 1, 6)) / 100.0;
  if (rng.chance(0.35)) {
    const int windows = pick(rng, 1, 2);
    std::uint64_t from = static_cast<std::uint64_t>(pick(rng, 0, 30));
    for (int w = 0; w < windows; ++w) {
      PartitionWindow win;
      win.from = from;
      win.until = from + static_cast<std::uint64_t>(pick(rng, 4, 30));
      win.split = t < 2 ? 1 : pick(rng, 1, t - 1);
      net.partitions.push_back(win);
      from = win.until + static_cast<std::uint64_t>(pick(rng, 2, 20));
    }
  }
  // At least one component must be active -- the grammar rejects an
  // effect-free net part.
  if (net.is_noop()) {
    net.lat_min = 1;
    net.lat_max = static_cast<std::uint64_t>(pick(rng, 2, 6));
  }
  net.seed = rng.uniform(1, 100000);
  return net;
}

}  // namespace

int crash_budget_of(const FaultSpec& spec) {
  switch (spec.kind()) {
    case FaultSpec::Kind::kNone: return 0;
    case FaultSpec::Kind::kCascade:
      return std::get<harness::CascadeSpec>(spec.crash).max_crashes;
    case FaultSpec::Kind::kOnUnit:
      return std::get<harness::OnUnitSpec>(spec.crash).max_crashes;
    case FaultSpec::Kind::kRandom:
      return std::get<harness::RandomSpec>(spec.crash).max_crashes;
    case FaultSpec::Kind::kScheduled:
      return static_cast<int>(std::get<harness::ScheduledSpec>(spec.crash).entries.size());
    case FaultSpec::Kind::kAdaptive:
      return std::get<harness::AdaptiveSpec>(spec.crash).max_crashes;
  }
  return 0;
}

void attach_fuzz_bounds(Scenario& s, int tighten_pct) {
  for (auto it = s.params.begin(); it != s.params.end();) {
    if (it->first.rfind("bound_", 0) == 0 || it->first == "assert_bounds" ||
        it->first == "report_bounds") {
      it = s.params.erase(it);
    } else {
      ++it;
    }
  }
  const int t = s.cfg.t;
  int budget = crash_budget_of(s.faults);
  if (s.protocol == "D") budget = std::min(budget, std::max(0, t / 2 - 1));
  const bool async = s.substrate == Substrate::kAsync;
  for (const auto& [key, bound] : harness::paper_bounds(bounds_protocol(s), s.cfg.n, t, budget)) {
    // The async substrate keeps Protocol A's work/message bounds but its
    // completion time follows the delay distribution, not the synchronous
    // round bound.
    if (async && key.rfind("bound_rounds", 0) == 0) continue;
    s.params[key] =
        std::max<std::int64_t>(1, bound * tighten_pct / 100);
  }
  // Crash-only cases assert the theorems; weather and jamming sit outside
  // the crash-fault model, so those cases report margins only (the verifier
  // still enforces completion and unit coverage).
  const bool outside_model = !s.faults.net.is_noop() || has_message_fault_budget(s.faults);
  s.params[outside_model ? "report_bounds" : "assert_bounds"] = 1;
}

Scenario generate_case(const GeneratorOptions& opts, int index) {
  Rng rng(mix(opts.seed, index));
  Scenario s;
  s.repetitions = 1;
  s.seed = rng.uniform(1, 1000000000);

  if (rng.chance(0.125)) {
    // Asynchronous Protocol A under its failure detector.
    s.substrate = Substrate::kAsync;
    s.protocol = "A_async";
    const int t = pick(rng, 2, 24);
    const std::int64_t n = static_cast<std::int64_t>(pick(rng, t, 16 * t));
    s.cfg = DoAllConfig{n, t};
    const int max_delay = pick(rng, 2, 20);
    s.params["max_delay"] = max_delay;
    s.params["fd_delay"] = pick(rng, max_delay, 4 * max_delay);
    // Processes 0..crashes-1 each crash on their kth working or sending
    // step, the unit completing and two sends escaping.
    const int crashes = pick(rng, 0, t - 1);
    const int kth = pick(rng, 1, static_cast<int>(ceil_div(n, t)) + 4);
    s.faults =
        FaultSpec::first_procs_crash(crashes, static_cast<std::uint64_t>(kth), CrashPlan{true, 2});
    // Async weather: latency only (it replaces the substrate's own delay
    // draw); loss against an asynchronous failure detector can starve the
    // run, so the generator leaves it to the directed network families.
    if (rng.chance(0.25)) {
      NetSpec net;
      net.lat_min = 1;
      net.lat_max = static_cast<std::uint64_t>(pick(rng, 2, 12));
      net.seed = rng.uniform(1, 100000);
      s.faults = s.faults.with_net(net);
    }
  } else {
    s.substrate = Substrate::kSync;
    static const char* kProtocols[] = {"A", "B", "C", "C_batch", "D"};
    s.protocol = kProtocols[pick(rng, 0, 4)];
    int t = 2;
    std::int64_t n = 1;
    int budget_cap = 0;
    if (s.protocol == "A" || s.protocol == "B") {
      t = pick(rng, 2, 48);
      n = static_cast<std::int64_t>(pick(rng, t, 16 * t));
      budget_cap = t - 1;
    } else if (s.protocol == "C" || s.protocol == "C_batch") {
      t = pick(rng, 2, 64);
      const int n_max = static_cast<int>(
          std::min<std::int64_t>(16 * t, harness::kCRoundBudget - t));
      n = static_cast<std::int64_t>(pick(rng, 1, n_max));
      budget_cap = t - 1;
    } else {  // D: divisible shape, minority crash budget (case-1 bounds)
      t = pick(rng, 4, 32);
      n = static_cast<std::int64_t>(t) * pick(rng, 1, 12);
      budget_cap = std::max(1, t / 2 - 1);
    }
    s.cfg = DoAllConfig{n, t};

    const bool jam = (s.protocol == "A" || s.protocol == "B") && rng.chance(0.08);
    if (jam) {
      s.faults = FaultSpec::adaptive("jammer", 0, rng.uniform(1, 1u << 20),
                                     /*jam=*/pick(rng, 1, 8));
    } else {
      s.faults = pick_crash_spec(rng, s.protocol, n, t, budget_cap);
    }
    // Weather only for A/B: C's polling chains and D's full-information
    // rounds assume reliable delivery too rigidly to terminate under
    // arbitrary loss, and the bound oracle would have nothing to say there
    // anyway (see docs/FUZZING.md).
    if ((s.protocol == "A" || s.protocol == "B") && rng.chance(0.3))
      s.faults = s.faults.with_net(pick_weather(rng, t));
  }

  // Every generated case doubles as a grammar round-trip test: the spec
  // must survive parse(to_string()) exactly.
  const std::string text = s.faults.to_string();
  if (!(FaultSpec::parse(text) == s.faults))
    throw std::logic_error("fuzz generator: FaultSpec round-trip failed for '" + text + "'");

  s.id = "case" + pad5(index) + "/" + s.protocol;
  s.group = s.id;
  attach_fuzz_bounds(s, opts.tighten_pct);
  return s;
}

std::vector<Scenario> generate_cases(const GeneratorOptions& opts, int count) {
  std::vector<Scenario> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(generate_case(opts, i));
  return out;
}

}  // namespace dowork::fuzz
