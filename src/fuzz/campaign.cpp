#include "fuzz/campaign.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "fuzz/generator.h"
#include "harness/parallel_runner.h"
#include "harness/report.h"

namespace dowork::fuzz {

namespace {

constexpr std::array<const char*, 12> kBuckets = {
    "0-10",   "10-20",  "20-30", "30-40", "40-50",    "50-60",
    "60-70",  "70-80",  "80-90", "90-100", ">100",    "overflow"};

// Decile bucket of one bound_margin_* value ("percent of the bound
// consumed, rounded up" -- scenario.cpp), with ">100" and "overflow" tails.
std::size_t bucket_of(const std::string& margin) {
  if (margin == "overflow") return 11;
  const long pct = std::stol(margin);
  if (pct > 100) return 10;
  if (pct <= 0) return 0;
  return static_cast<std::size_t>((pct - 1) / 10);
}

struct ProtocolStats {
  int cases = 0;
  int ok = 0;
  // Histograms over the margin columns, one per measure.
  std::array<std::uint64_t, 12> work{};
  std::array<std::uint64_t, 12> msgs{};
  std::array<std::uint64_t, 12> rounds{};
};

std::string pad5(int index) {
  std::string s = std::to_string(index);
  while (s.size() < 5) s.insert(s.begin(), '0');
  return s;
}

void histogram_json(std::ostringstream& out, const char* name,
                    const std::array<std::uint64_t, 12>& counts) {
  out << "\"" << name << "\": {";
  for (std::size_t b = 0; b < kBuckets.size(); ++b) {
    if (b) out << ", ";
    out << "\"" << kBuckets[b] << "\": " << counts[b];
  }
  out << "}";
}

void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("fuzz: cannot write " + path.string());
  out << content;
}

// The pool leg's evaluation threads: enough shards that a round's results
// cross threads, few enough that a 2-core runner with --jobs 2 keeps up.
constexpr int kPoolDiffThreads = 4;

const char* diff_name(CampaignOptions::Diff diff) {
  switch (diff) {
    case CampaignOptions::Diff::kNone: return "none";
    case CampaignOptions::Diff::kPool: return "pool";
    case CampaignOptions::Diff::kSocket: return "socket";
  }
  return "?";
}

}  // namespace

CampaignResult run_campaign(const CampaignOptions& opts) {
  CampaignResult result;
  result.options = opts;

  const GeneratorOptions gen{opts.seed, opts.tighten_pct};
  const std::vector<harness::Scenario> cases = generate_cases(gen, opts.cases);

  // One trace slot per case; worker threads write disjoint slots, the
  // wrapped scenarios are otherwise pure data.  In diff mode every sync
  // case's first run is its live leg; `diffed` marks them, and
  // serial_traces holds their serial (oracle) legs.
  std::vector<Trace> traces(cases.size());
  std::vector<bool> diffed(cases.size(), false);
  std::vector<Trace> serial_traces(cases.size());
  std::vector<harness::Scenario> wrapped;
  wrapped.reserve(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    wrapped.push_back(with_recording(cases[i], &traces[i]));
    if (opts.diff == CampaignOptions::Diff::kNone ||
        cases[i].substrate != harness::Substrate::kSync)
      continue;
    // The pool leg alternates the pool's two modes: even cases shard over
    // the --sim-threads pool, odd cases run as live rows on the supervised
    // pool (every round dispatched, one shard per step).  The trace header
    // was taken above, so it still names the generated case.
    if (opts.diff == CampaignOptions::Diff::kSocket)
      wrapped.back().force_backend = harness::Scenario::ForceBackend::kSocket;
    else if (i % 2 == 0)
      wrapped.back().sim_threads = kPoolDiffThreads;
    else
      wrapped.back().substrate = harness::Substrate::kLive;
    diffed[i] = true;
  }

  harness::ParallelScenarioRunner runner(opts.jobs);
  if (!opts.quiet) {
    runner.set_progress([](std::size_t done, std::size_t total) {
      if (done % 100 == 0 || done == total)
        std::fprintf(stderr, "\r[fuzz] %zu/%zu cases", done, total);
      if (done == total) std::fprintf(stderr, "\n");
    });
  }
  result.rows = runner.run("fuzz", wrapped);
  for (std::size_t i = 0; i < result.rows.size(); ++i)
    fill_outcome(result.rows[i], &traces[i]);

  if (opts.diff != CampaignOptions::Diff::kNone) {
    // Second pass: the serial oracle legs, recorded.  Same fan-out/slot
    // discipline, so the report stays byte-identical at any --jobs.  The
    // comparison is whole-trace: identical decision streams AND identical
    // outcome rows, the strongest check the recorder supports.
    std::vector<harness::Scenario> oracle;
    std::vector<std::size_t> oracle_idx;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (!diffed[i]) continue;
      oracle.push_back(with_recording(cases[i], &serial_traces[i]));
      oracle_idx.push_back(i);
    }
    const std::vector<harness::ScenarioResult> oracle_rows = runner.run("fuzz", oracle);
    for (std::size_t k = 0; k < oracle_rows.size(); ++k) {
      const std::size_t i = oracle_idx[k];
      fill_outcome(oracle_rows[k], &serial_traces[i]);
      if (traces[i] == serial_traces[i]) continue;
      if (result.rows[i].ok) {
        const bool outcomes_match = traces[i].outcome == serial_traces[i].outcome;
        result.rows[i].ok = false;
        result.rows[i].violation = std::string("diff divergence: ") + diff_name(opts.diff) +
                                   " leg differs from the serial leg (" +
                                   (outcomes_match ? "decision streams" : "outcome") + ")";
      }
    }
  }

  // Violations: shrink serially, in case order (the shrinker itself is
  // deterministic, so the whole report stays independent of --jobs).
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    if (result.rows[i].ok) continue;
    CampaignViolation v;
    v.index = static_cast<int>(i);
    v.row = result.rows[i];
    ShrinkOptions shrink_opts;
    shrink_opts.tighten_pct = opts.tighten_pct;
    if (diffed[i]) {
      // The serial oracle leg already ran, recorded.  A failure it
      // reproduces is not a backend bug and shrinks normally (the
      // shrinker's candidates replay serial legs); a clean serial leg means
      // the live leg diverged, so the case is its own minimal reproducer
      // and the clean serial trace rides along for inspection.
      v.trace = serial_traces[i];
      if (!serial_traces[i].outcome.ok) {
        v.shrunk = shrink(cases[i], shrink_opts);
      } else {
        v.shrunk.minimal = cases[i];
        v.shrunk.row = result.rows[i];
        v.shrunk.trace = serial_traces[i];
      }
    } else {
      v.trace = traces[i];
      v.shrunk = shrink(cases[i], shrink_opts);
    }
    v.trace_file = "case" + pad5(v.index) + ".trace";
    v.shrunk_trace_file = "case" + pad5(v.index) + ".shrunk.trace";
    result.violations.push_back(std::move(v));
  }

  if (!opts.trace_dir.empty() && !result.violations.empty()) {
    const std::filesystem::path dir(opts.trace_dir);
    std::filesystem::create_directories(dir);
    for (const CampaignViolation& v : result.violations) {
      write_file(dir / v.trace_file, v.trace.to_string());
      write_file(dir / v.shrunk_trace_file, v.shrunk.trace.to_string());
    }
  }
  return result;
}

std::string CampaignResult::to_json() const {
  using harness::json_escape;
  // Per-protocol reduction in sorted-name order (std::map), independent of
  // generation or completion order.
  std::map<std::string, ProtocolStats> stats;
  for (const harness::ScenarioResult& row : rows) {
    ProtocolStats& ps = stats[row.protocol];
    ++ps.cases;
    if (row.ok) ++ps.ok;
    for (const auto& [key, value] : row.extra) {
      if (key == "bound_margin_work") ps.work[bucket_of(value)]++;
      else if (key == "bound_margin_msgs") ps.msgs[bucket_of(value)]++;
      else if (key == "bound_margin_rounds") ps.rounds[bucket_of(value)]++;
    }
  }

  std::ostringstream out;
  out << "{\n";
  out << "  \"campaign\": {\"seed\": " << options.seed << ", \"cases\": " << options.cases
      << ", \"tighten_pct\": " << options.tighten_pct;
  if (options.diff != CampaignOptions::Diff::kNone)
    out << ", \"diff\": \"" << diff_name(options.diff) << "\"";
  out << "},\n";
  out << "  \"summary\": {\"ok\": "
      << rows.size() - violations.size() << ", \"violations\": " << violations.size()
      << "},\n";
  out << "  \"per_protocol\": [\n";
  bool first = true;
  for (const auto& [protocol, ps] : stats) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"protocol\": \"" << json_escape(protocol) << "\", \"cases\": " << ps.cases
        << ", \"ok\": " << ps.ok << ", \"margins\": {";
    histogram_json(out, "work", ps.work);
    out << ", ";
    histogram_json(out, "msgs", ps.msgs);
    out << ", ";
    histogram_json(out, "rounds", ps.rounds);
    out << "}}";
  }
  out << "\n  ],\n";
  out << "  \"violations\": [\n";
  first = true;
  for (const CampaignViolation& v : violations) {
    if (!first) out << ",\n";
    first = false;
    const harness::ScenarioResult& m = v.shrunk.row;
    out << "    {\"case\": " << v.index << ", \"id\": \"" << json_escape(v.row.id)
        << "\", \"protocol\": \"" << json_escape(v.row.protocol) << "\", \"substrate\": \""
        << json_escape(v.row.substrate) << "\", \"faults\": \"" << json_escape(v.row.faults)
        << "\", \"n\": " << v.row.n << ", \"t\": " << v.row.t << ", \"seed\": " << v.row.seed
        << ", \"violation\": \"" << json_escape(v.row.violation) << "\",\n";
    out << "     \"shrunk\": {\"faults\": \"" << json_escape(m.faults) << "\", \"n\": " << m.n
        << ", \"t\": " << m.t << ", \"seed\": " << m.seed << ", \"violation\": \""
        << json_escape(m.violation) << "\", \"accepted\": " << v.shrunk.accepted
        << ", \"attempts\": " << v.shrunk.attempts << "},\n";
    out << "     \"trace\": \"" << json_escape(v.trace_file) << "\", \"shrunk_trace\": \""
        << json_escape(v.shrunk_trace_file) << "\"}";
  }
  out << "\n  ]\n";
  out << "}\n";
  return out.str();
}

std::string CampaignResult::summary_table() const {
  std::map<std::string, ProtocolStats> stats;
  for (const harness::ScenarioResult& row : rows) {
    ProtocolStats& ps = stats[row.protocol];
    ++ps.cases;
    if (row.ok) ++ps.ok;
  }
  std::ostringstream out;
  out << "fuzz campaign: seed " << options.seed << ", " << options.cases << " cases";
  if (options.tighten_pct != 100) out << ", bounds tightened to " << options.tighten_pct << "%";
  if (options.diff != CampaignOptions::Diff::kNone)
    out << ", diff (" << diff_name(options.diff) << " leg vs serial simulator)";
  out << "\n";
  for (const auto& [protocol, ps] : stats)
    out << "  " << protocol << ": " << ps.ok << "/" << ps.cases << " ok\n";
  if (violations.empty()) {
    out << "no violations\n";
    return out.str();
  }
  out << violations.size() << " violation(s):\n";
  for (const CampaignViolation& v : violations) {
    const harness::ScenarioResult& m = v.shrunk.row;
    out << "  " << v.row.id << ": " << v.row.violation << "\n";
    out << "    minimal reproducer: protocol=" << m.protocol << " n=" << m.n << " t=" << m.t
        << " seed=" << m.seed << " faults=" << m.faults << "\n";
    out << "    minimal violation:  " << m.violation << "\n";
    out << "    trace: " << v.shrunk_trace_file
        << (options.trace_dir.empty() ? " (pass --trace-dir to write)" : "") << "\n";
  }
  return out.str();
}

}  // namespace dowork::fuzz
