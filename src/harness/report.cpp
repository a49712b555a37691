#include "harness/report.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "util/strings.h"

namespace dowork::harness {

namespace {

// Extra-column values that are magnitudes: plain decimals (optionally with
// thousands separators) and format_round()'s "~2^k" fallback.
bool is_magnitude(const std::string& s) {
  if (s.rfind("~2^", 0) == 0) return s.size() > 3;
  if (s.empty()) return false;
  for (char c : s)
    if ((c < '0' || c > '9') && c != ',') return false;
  return true;
}

// Orders two magnitude strings: every ~2^k form exceeds every decimal form
// the formatter emits (it only falls back past u64); decimals compare by
// digit count then lexicographically (separators stripped).
bool magnitude_less(const std::string& a, const std::string& b) {
  const bool pa = a.rfind("~2^", 0) == 0, pb = b.rfind("~2^", 0) == 0;
  if (pa != pb) return pb;
  if (pa) return std::stoi(a.substr(3)) < std::stoi(b.substr(3));
  std::string da, db;
  for (char c : a)
    if (c != ',') da += c;
  for (char c : b)
    if (c != ',') db += c;
  if (da.size() != db.size()) return da.size() < db.size();
  return da < db;
}

// Commutative reduction of one extra column across a group's rows.
std::string merge_extra(const std::string& a, const std::string& b) {
  if (a == b) return a;
  if (is_magnitude(a) && is_magnitude(b)) return magnitude_less(a, b) ? b : a;
  if (a == "NO" || b == "NO") return "NO";  // yes/NO flags: any failure wins
  return "mixed";
}

// Fixed-format milliseconds (locale-independent, for tables and the timing
// JSON section).
std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

}  // namespace

std::vector<GroupAggregate> aggregate(const std::vector<ScenarioResult>& rows) {
  std::vector<GroupAggregate> groups;
  for (const ScenarioResult& row : rows) {
    GroupAggregate* g = nullptr;
    for (GroupAggregate& existing : groups)
      if (existing.group == row.group) {
        g = &existing;
        break;
      }
    if (!g) {
      groups.push_back(GroupAggregate{});
      g = &groups.back();
      g->group = row.group;
      g->protocol = row.protocol;
      g->substrate = row.substrate;
      g->n = row.n;
      g->t = row.t;
    }
    RunMetrics m;
    m.work_total = row.work;
    m.messages_total = row.messages;
    m.crashes = row.crashes;
    m.last_retire_round = row.last_round;
    m.all_retired = row.ok;  // a failed row poisons the group's all_ok
    g->metrics.absorb(m);
    g->wall_ms += row.wall_ms;  // sum: commutative, so jobs-order independent
    // Union of extra keys in first-occurrence order, values reduced
    // commutatively so completion order cannot matter.
    for (const auto& [key, value] : row.extra) {
      bool found = false;
      for (auto& [k, v] : g->extra)
        if (k == key) {
          v = merge_extra(v, value);
          found = true;
          break;
        }
      if (!found) g->extra.emplace_back(key, value);
    }
  }
  return groups;
}

std::string render_table(const std::vector<GroupAggregate>& groups) {
  std::vector<std::string> headers = {"scenario", "protocol", "n",      "t",
                                      "runs",     "work",     "msgs",   "effort",
                                      "rounds",   "crashes",  "ok",     "ms"};
  // Columns are the union of extra keys over all groups, in first-occurrence
  // order, so a key absent from the first group still gets a column.
  std::vector<std::string> extra_keys;
  for (const GroupAggregate& g : groups)
    for (const auto& [key, value] : g.extra)
      if (std::find(extra_keys.begin(), extra_keys.end(), key) == extra_keys.end())
        extra_keys.push_back(key);
  for (const std::string& key : extra_keys) headers.push_back(key);

  TablePrinter table(headers);
  for (const GroupAggregate& g : groups) {
    std::vector<std::string> row = {g.group,
                                    g.protocol,
                                    std::to_string(g.n),
                                    std::to_string(g.t),
                                    std::to_string(g.metrics.runs),
                                    with_commas(g.metrics.max_work),
                                    with_commas(g.metrics.max_messages),
                                    with_commas(g.metrics.max_effort),
                                    format_round(g.metrics.max_rounds),
                                    std::to_string(g.metrics.max_crashes),
                                    g.metrics.all_ok ? "yes" : "NO",
                                    format_ms(g.wall_ms)};
    for (const std::string& key : extra_keys) {
      std::string value;
      for (const auto& [k, v] : g.extra)
        if (k == key) {
          value = v;
          break;
        }
      row.push_back(value);
    }
    table.add_row(std::move(row));
  }
  return table.render();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_kv(std::string& out, const char* key, const std::string& value, bool quote) {
  out += '"';
  out += key;
  out += "\":";
  if (quote) {
    out += '"';
    out += json_escape(value);
    out += '"';
  } else {
    out += value;
  }
}

}  // namespace

std::string to_json(const std::string& experiment, const std::vector<ScenarioResult>& rows,
                    bool include_timing) {
  std::string out = "{\"experiment\":\"" + json_escape(experiment) + "\",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScenarioResult& r = rows[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "id", r.id, true);
    out += ',';
    append_kv(out, "group", r.group, true);
    out += ',';
    append_kv(out, "protocol", r.protocol, true);
    out += ',';
    append_kv(out, "substrate", r.substrate, true);
    out += ',';
    append_kv(out, "faults", r.faults, true);
    out += ',';
    append_kv(out, "n", std::to_string(r.n), false);
    out += ',';
    append_kv(out, "t", std::to_string(r.t), false);
    out += ',';
    append_kv(out, "seed", std::to_string(r.seed), false);
    out += ',';
    append_kv(out, "rep", std::to_string(r.rep), false);
    out += ',';
    append_kv(out, "ok", r.ok ? "true" : "false", false);
    out += ',';
    append_kv(out, "violation", r.violation, true);
    out += ',';
    append_kv(out, "work", std::to_string(r.work), false);
    out += ',';
    append_kv(out, "messages", std::to_string(r.messages), false);
    out += ',';
    append_kv(out, "effort", std::to_string(r.effort), false);
    out += ',';
    append_kv(out, "crashes", std::to_string(r.crashes), false);
    out += ',';
    append_kv(out, "rounds", r.rounds, true);
    out += ",\"extra\":{";
    for (std::size_t e = 0; e < r.extra.size(); ++e) {
      if (e) out += ',';
      out += '"' + json_escape(r.extra[e].first) + "\":\"" + json_escape(r.extra[e].second) +
             '"';
    }
    out += "}}";
  }
  out += "],\"aggregates\":[";
  const std::vector<GroupAggregate> groups = aggregate(rows);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupAggregate& g = groups[i];
    if (i) out += ',';
    out += '{';
    append_kv(out, "group", g.group, true);
    out += ',';
    append_kv(out, "protocol", g.protocol, true);
    out += ',';
    append_kv(out, "substrate", g.substrate, true);
    out += ',';
    append_kv(out, "n", std::to_string(g.n), false);
    out += ',';
    append_kv(out, "t", std::to_string(g.t), false);
    out += ',';
    append_kv(out, "runs", std::to_string(g.metrics.runs), false);
    out += ',';
    append_kv(out, "max_work", std::to_string(g.metrics.max_work), false);
    out += ',';
    append_kv(out, "max_messages", std::to_string(g.metrics.max_messages), false);
    out += ',';
    append_kv(out, "max_effort", std::to_string(g.metrics.max_effort), false);
    out += ',';
    append_kv(out, "max_crashes", std::to_string(g.metrics.max_crashes), false);
    out += ',';
    append_kv(out, "max_rounds", format_round(g.metrics.max_rounds), true);
    out += ',';
    append_kv(out, "ok", g.metrics.all_ok ? "true" : "false", false);
    out += '}';
  }
  out += ']';
  if (include_timing) {
    // Machine-dependent by design; excluded from the determinism contract
    // (see report.h).  Positional: timing.rows[i] is rows[i]'s wall clock,
    // carrying its id and rep so bench/compare_bench.py can check the join.
    // Every rollup (group, protocol, experiment) is derived there.
    out += ",\"timing\":{\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i) out += ',';
      out += "{\"id\":\"" + json_escape(rows[i].id) +
             "\",\"rep\":" + std::to_string(rows[i].rep) +
             ",\"wall_ms\":" + format_ms(rows[i].wall_ms);
      // Live-substrate repetitions additionally report real throughput
      // (work units per wall-clock second, measured by src/substrate/).
      if (rows[i].units_per_sec > 0)
        out += ",\"units_per_sec\":" + format_ms(rows[i].units_per_sec);
      out += '}';
    }
    out += "]}";
  }
  out += '}';
  return out;
}

}  // namespace dowork::harness
