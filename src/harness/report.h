// Reduction and rendering of scenario results: group aggregation (the
// paper's worst-over-adversaries tables), paper-style ASCII tables, and the
// machine-readable JSON report consumed by CI.
#pragma once

#include <string>
#include <vector>

#include "harness/scenario.h"
#include "sim/metrics.h"

namespace dowork::harness {

// One aggregated table row: all results sharing a group key, reduced with
// sim/metrics.h's commutative MetricsAggregate so the reduction is
// order-independent.
struct GroupAggregate {
  std::string group;
  std::string protocol;
  std::string substrate;
  std::int64_t n = 0;
  int t = 0;
  MetricsAggregate metrics;
  double wall_ms = 0;  // summed over the group's rows; the table's ms column
  // Extra columns, reduced across the group's rows: the union of keys in
  // first-occurrence order; numeric/round-formatted values reduce to their
  // max, yes/NO flags to NO-if-any-NO, anything else must agree ("mixed"
  // otherwise).
  std::vector<std::pair<std::string, std::string>> extra;
};

// Groups rows by their group key, in first-occurrence order.
std::vector<GroupAggregate> aggregate(const std::vector<ScenarioResult>& rows);

// Paper-style table over the aggregated groups.  The trailing "ms" column
// (wall-clock per group) is for humans; it never enters the JSON row data.
std::string render_table(const std::vector<GroupAggregate>& groups);

// Deterministic JSON document: {"experiment", "rows": [...], "aggregates":
// [...]} with no timestamps or machine-dependent fields, so --jobs 1 and
// --jobs N produce byte-identical output.  With include_timing, a trailing
// "timing" key is appended ({"rows": [{id, rep, wall_ms[, units_per_sec]}]},
// timing.rows[i] measuring rows[i]) -- the one machine-dependent section,
// used for perf artifacts like BENCH_scale.json; CI's determinism diff runs
// without it and stays byte-exact.  Group, protocol and experiment sums are
// not emitted: bench/compare_bench.py derives them from the rows.
std::string to_json(const std::string& experiment, const std::vector<ScenarioResult>& rows,
                    bool include_timing = false);

// Minimal JSON string escaping (quotes, backslash, control characters).
std::string json_escape(const std::string& s);

}  // namespace dowork::harness
