// Scenario-fuzzing CLI: random valid campaigns under the bound oracles,
// deterministic trace capture, replay, and greedy shrinking.
//
//   dowork_fuzz --cases 1000 --seed 42            # the CI campaign
//   dowork_fuzz --cases 200 --tighten 40          # plant violations
//   dowork_fuzz --replay traces/case00007.shrunk.trace
//
// The campaign exits 0 iff no case violated a bound or an invariant; the
// JSON report (--json) is byte-identical at any --jobs value.  See
// docs/FUZZING.md for the trace format and the replay workflow.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "fuzz/campaign.h"
#include "fuzz/trace.h"
#include "substrate/socket_substrate.h"

namespace {

int usage(int code) {
  std::printf(
      "usage: dowork_fuzz [options]\n"
      "\n"
      "campaign mode (default):\n"
      "  --cases N       generated cases (default 1000)\n"
      "  --seed S        campaign seed (default 42)\n"
      "  --jobs J        worker threads (default: hardware concurrency)\n"
      "  --tighten PCT   scale every bound to PCT%% of the paper's value\n"
      "                  (plants deliberate violations; default 100)\n"
      "  --json FILE     write the deterministic campaign report\n"
      "  --trace-dir DIR write violation traces (original + shrunk reproducer)\n"
      "  --diff pool|socket\n"
      "                  run every sync case twice, recorded: on a live leg --\n"
      "                  the in-process round pool, or worker OS processes\n"
      "                  over localhost sockets where crashes are real\n"
      "                  SIGKILLs -- and serially on the simulator (the\n"
      "                  oracle); any decision or outcome divergence fails\n"
      "                  the case (divergences are reported unshrunk, with\n"
      "                  the serial leg's trace attached)\n"
      "  --quiet         suppress the progress meter\n"
      "exit status: 0 iff every case satisfied its bounds and invariants\n"
      "\n"
      "replay mode:\n"
      "  --replay FILE   re-execute a trace and verify it reproduces the\n"
      "                  recorded outcome bit-identically\n"
      "  --rerun         with --replay: rebuild the adversary from the spec\n"
      "                  and re-derive the run from seeds instead of\n"
      "                  replaying the frozen decision stream\n"
      "exit status: 0 iff the re-execution matches the recorded outcome\n");
  return code;
}

int replay_mode(const std::string& file, bool frozen) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "dowork_fuzz: cannot read %s\n", file.c_str());
    return 1;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const dowork::fuzz::Trace trace = dowork::fuzz::Trace::parse(text.str());
  const dowork::harness::ScenarioResult row = dowork::fuzz::replay(trace, frozen);
  const dowork::fuzz::TraceOutcome got = dowork::fuzz::outcome_of(row);

  auto show = [](const char* label, const dowork::fuzz::TraceOutcome& o) {
    std::printf("%s ok=%d work=%llu msgs=%llu effort=%llu crashes=%llu rounds=%s", label,
                o.ok ? 1 : 0, static_cast<unsigned long long>(o.work),
                static_cast<unsigned long long>(o.messages),
                static_cast<unsigned long long>(o.effort),
                static_cast<unsigned long long>(o.crashes), o.rounds.c_str());
    if (!o.violation.empty()) std::printf(" violation=%s", o.violation.c_str());
    std::printf("\n");
  };
  std::printf("trace: %s (%s, %s, n=%lld, t=%d, faults=%s)\n", trace.id.c_str(),
              trace.substrate.c_str(), trace.protocol.c_str(),
              static_cast<long long>(trace.n), trace.t, trace.faults.c_str());
  show("recorded:", trace.outcome);
  show(frozen ? "replayed:" : "rerun:   ", got);
  if (got == trace.outcome) {
    std::printf("replay reproduces the recorded outcome bit-identically\n");
    return 0;
  }
  std::printf("REPLAY MISMATCH\n");
  return 1;
}

// Checked decimal parse of a flag's value (std::stoi would throw outside
// main's try and abort): the whole token must be an integer in [lo, hi],
// else print what was wrong and exit 2.
long long parse_int(const std::string& flag, const std::string& text, long long lo,
                    long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "dowork_fuzz: %s wants an integer in [%lld, %lld], got '%s'\n",
                 flag.c_str(), lo, hi, text.c_str());
    std::exit(2);
  }
  return v;
}

// The same for the 64-bit seed, which strtoll cannot span.
std::uint64_t parse_seed(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "dowork_fuzz: --seed wants an unsigned integer, got '%s'\n",
                 text.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  // Socket-substrate workers re-execute this very binary (--diff socket
  // campaigns fork them via /proc/self/exe); a worker argv never looks like
  // a fuzz invocation, so the hook is a no-op otherwise.
  if (int code = dowork::substrate::maybe_socket_worker(argc, argv); code >= 0) return code;
  dowork::fuzz::CampaignOptions opts;
  std::string json_file;
  std::string replay_file;
  bool rerun = false;
  constexpr long long kIntMax = std::numeric_limits<int>::max();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "dowork_fuzz: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--cases") {
      opts.cases = static_cast<int>(parse_int(arg, value(), 1, kIntMax));
    } else if (arg == "--seed") {
      opts.seed = parse_seed(value());
    } else if (arg == "--jobs") {
      opts.jobs = static_cast<int>(parse_int(arg, value(), 0, kIntMax));
    } else if (arg == "--tighten") {
      opts.tighten_pct = static_cast<int>(parse_int(arg, value(), 1, kIntMax));
    } else if (arg == "--json") {
      json_file = value();
    } else if (arg == "--trace-dir") {
      opts.trace_dir = value();
    } else if (arg == "--diff") {
      const std::string leg = value();
      if (leg == "pool") {
        opts.diff = dowork::fuzz::CampaignOptions::Diff::kPool;
      } else if (leg == "socket") {
        opts.diff = dowork::fuzz::CampaignOptions::Diff::kSocket;
      } else {
        std::fprintf(stderr, "dowork_fuzz: --diff wants 'pool' or 'socket', got '%s'\n",
                     leg.c_str());
        return 2;
      }
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg == "--replay") {
      replay_file = value();
    } else if (arg == "--rerun") {
      rerun = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::fprintf(stderr, "dowork_fuzz: unknown option %s\n", arg.c_str());
      return usage(2);
    }
  }

  try {
    if (!replay_file.empty()) return replay_mode(replay_file, /*frozen=*/!rerun);
    const dowork::fuzz::CampaignResult result = dowork::fuzz::run_campaign(opts);
    if (!json_file.empty()) {
      std::ofstream out(json_file);
      if (!out) {
        std::fprintf(stderr, "dowork_fuzz: cannot write %s\n", json_file.c_str());
        return 1;
      }
      out << result.to_json();
    }
    std::fputs(result.summary_table().c_str(), stdout);
    return result.clean() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dowork_fuzz: %s\n", e.what());
    return 1;
  }
}
