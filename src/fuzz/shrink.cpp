#include "fuzz/shrink.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "fuzz/generator.h"
#include "harness/bounds.h"

namespace dowork::fuzz {

namespace {

using harness::FaultSpec;
using harness::Scenario;

// Apply `f` to the crash component's budget knob, whatever the kind.
void map_budget(FaultSpec& spec, const std::function<int(int)>& f) {
  if (auto* c = std::get_if<harness::CascadeSpec>(&spec.crash)) {
    c->max_crashes = f(c->max_crashes);
  } else if (auto* o = std::get_if<harness::OnUnitSpec>(&spec.crash)) {
    o->max_crashes = f(o->max_crashes);
  } else if (auto* r = std::get_if<harness::RandomSpec>(&spec.crash)) {
    r->max_crashes = f(r->max_crashes);
  } else if (auto* s = std::get_if<harness::ScheduledSpec>(&spec.crash)) {
    const int keep = std::max(0, f(static_cast<int>(s->entries.size())));
    if (static_cast<std::size_t>(keep) < s->entries.size())
      s->entries.resize(static_cast<std::size_t>(keep));
  } else if (auto* a = std::get_if<harness::AdaptiveSpec>(&spec.crash)) {
    a->max_crashes = f(a->max_crashes);
  }
}

int net_components(const NetSpec& net) {
  return (net.lat_max > 0 ? 1 : 0) + (net.drop > 0.0 ? 1 : 0) +
         static_cast<int>(net.partitions.size());
}

// Scalar size metric the greedy loop strictly decreases: shape, crash
// budget, schedule length, network clauses, jam budget.
std::int64_t size_of(const Scenario& s) {
  std::int64_t sz = s.cfg.t + s.cfg.n;
  sz += crash_budget_of(s.faults);
  if (const auto* sch = std::get_if<harness::ScheduledSpec>(&s.faults.crash))
    sz += static_cast<std::int64_t>(sch->entries.size());
  if (const auto* a = std::get_if<harness::AdaptiveSpec>(&s.faults.crash))
    sz += a->max_message_faults;
  sz += net_components(s.faults.net);
  return sz;
}

// Clamp the mutated scenario back into its protocol's validity envelope and
// re-attach the (tightened) bound oracle for the new shape.
void normalize(Scenario& s, int tighten_pct) {
  int& t = s.cfg.t;
  std::int64_t& n = s.cfg.n;
  t = std::max(2, t);
  if (s.protocol == "D") {
    n = std::max<std::int64_t>(t, (n / t) * t);  // keep t | n
  } else if (s.protocol == "C" || s.protocol == "C_batch") {
    n = std::min<std::int64_t>(std::max<std::int64_t>(1, n), harness::kCRoundBudget - t);
  } else {
    n = std::max<std::int64_t>(t, n);
  }
  const int cap =
      s.protocol == "D" ? std::max(0, t / 2 - 1) : t - 1;
  map_budget(s.faults, [&](int b) { return std::clamp(b, 0, cap); });
  if (auto* o = std::get_if<harness::OnUnitSpec>(&s.faults.crash))
    o->unit = std::clamp<std::int64_t>(o->unit, 1, n);
  if (auto* sch = std::get_if<harness::ScheduledSpec>(&s.faults.crash)) {
    std::erase_if(sch->entries,
                  [&](const ScheduledFaults::Entry& e) { return e.proc < 0 || e.proc >= t; });
  }
  std::erase_if(s.faults.net.partitions,
                [](const PartitionWindow& w) { return w.until <= w.from; });
  for (PartitionWindow& w : s.faults.net.partitions)
    w.split = std::clamp(w.split, 1, std::max(1, t - 1));
  attach_fuzz_bounds(s, tighten_pct);
}

// The fixed candidate list, re-derived from the current scenario each
// round.  Every candidate either shrinks the shape, the adversary, or the
// weather; inapplicable ones return the scenario unchanged and are filtered
// by the strict size check.
std::vector<Scenario> candidates(const Scenario& cur) {
  std::vector<Scenario> out;
  auto push = [&](const std::function<void(Scenario&)>& mutate) {
    Scenario s = cur;
    mutate(s);
    out.push_back(std::move(s));
  };
  push([](Scenario& s) { s.cfg.t /= 2; });
  push([](Scenario& s) { s.cfg.t -= 1; });
  push([](Scenario& s) { s.cfg.n /= 2; });
  push([](Scenario& s) { s.cfg.n -= s.protocol == "D" ? s.cfg.t : 1; });
  push([](Scenario& s) { map_budget(s.faults, [](int b) { return b / 2; }); });
  push([](Scenario& s) { map_budget(s.faults, [](int b) { return b - 1; }); });
  push([](Scenario& s) {
    if (auto* sch = std::get_if<harness::ScheduledSpec>(&s.faults.crash))
      if (!sch->entries.empty()) sch->entries.pop_back();
  });
  push([](Scenario& s) {
    if (auto* a = std::get_if<harness::AdaptiveSpec>(&s.faults.crash))
      a->max_message_faults /= 2;
  });
  push([](Scenario& s) { s.faults.net.partitions.clear(); });
  push([](Scenario& s) { s.faults.net.drop = 0.0; });
  push([](Scenario& s) { s.faults.net.lat_min = s.faults.net.lat_max = 0; });
  push([](Scenario& s) { s.faults.crash = std::monostate{}; });
  return out;
}

}  // namespace

bool is_bound_violation(const std::string& violation) {
  return violation.find(" exceeds ") != std::string::npos;
}

ShrinkOutcome shrink(const Scenario& failing, const ShrinkOptions& opts) {
  ShrinkOutcome out;
  out.minimal = failing;
  {
    RecordedRun rr = run_recorded(out.minimal, "fuzz_shrink");
    ++out.attempts;
    if (rr.row.ok)
      throw std::invalid_argument("shrink: scenario '" + failing.id + "' does not fail");
    out.row = std::move(rr.row);
    out.trace = std::move(rr.trace);
  }
  const bool want_bound = is_bound_violation(out.row.violation);

  bool progress = true;
  while (progress && out.attempts < opts.max_attempts) {
    progress = false;
    for (Scenario cand : candidates(out.minimal)) {
      normalize(cand, opts.tighten_pct);
      if (size_of(cand) >= size_of(out.minimal)) continue;
      if (out.attempts >= opts.max_attempts) break;
      RecordedRun rr = run_recorded(cand, "fuzz_shrink");
      ++out.attempts;
      if (rr.row.ok || is_bound_violation(rr.row.violation) != want_bound) continue;
      out.minimal = std::move(cand);
      out.row = std::move(rr.row);
      out.trace = std::move(rr.trace);
      ++out.accepted;
      progress = true;
      break;  // restart the candidate list from the top
    }
  }
  return out;
}

}  // namespace dowork::fuzz
