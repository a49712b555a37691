#include "harness/bench_main.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>
#include <vector>

#include "harness/experiments.h"
#include "harness/parallel_runner.h"
#include "harness/report.h"
#include "substrate/socket_substrate.h"

namespace dowork::harness {

namespace {

void print_usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --experiment NAMES  experiment(s) to run: one name, a comma-separated\n"
      "                      list, or 'all'; see --list\n"
      "  --jobs N            worker threads (default: hardware concurrency)\n"
      "  --json PATH         write the machine-readable report to PATH ('-' = stdout)\n"
      "  --filter SUBSTR     only run scenarios whose id contains SUBSTR\n"
      "  --backend WHICH     execution backend for sync scenarios: 'sim' (default)\n"
      "                      or 'socket' (one worker OS process per protocol\n"
      "                      process over localhost sockets, deterministic\n"
      "                      schedule: report rows are identical to sim's, with\n"
      "                      real units/sec under --timing); a selection with no\n"
      "                      sync scenario rejects 'socket' (see --list)\n"
      "  --transport WHICH   socket-backend transport: 'uds' (default) or 'tcp'\n"
      "                      (127.0.0.1); requires --backend socket\n"
      "  --sim-threads N     round-parallel evaluation inside each simulator run\n"
      "                      (default 1 = serial; reports are byte-identical at\n"
      "                      any value, so this only moves wall clock -- best for\n"
      "                      one big run, where --jobs has nothing to fan out);\n"
      "                      it applies to sync, byzantine and dynamic scenarios\n"
      "  --timing            include wall-clock timing and the process's peak RSS\n"
      "                      in the JSON report\n"
      "                      (machine-dependent; breaks byte-identity across runs)\n"
      "  --list              list experiments and exit\n"
      "  --quiet             suppress the tables\n"
      "  --help              this text\n",
      argv0);
}

void list_experiments() {
  for (const ExperimentInfo& e : all_experiments()) {
    const std::vector<Scenario> scenarios = e.scenarios();
    bool any_sync = false;
    for (const Scenario& s : scenarios)
      if (s.substrate == Substrate::kSync) { any_sync = true; break; }
    // The marker is a trailing column, so `--list | awk '{print $1}'` style
    // scripting keeps seeing the names: experiments with sync scenarios
    // accept --backend socket.
    std::printf("%-20s %-40s %zu scenarios%s\n", e.name.c_str(), e.title.c_str(),
                scenarios.size(), any_sync ? "  [--backend capable]" : "");
  }
}

}  // namespace

int bench_main(int argc, char** argv) {
  // Socket-substrate workers re-execute this very binary; a worker argv
  // never looks like a bench invocation, so the hook is a no-op otherwise.
  if (int code = substrate::maybe_socket_worker(argc, argv); code >= 0) return code;
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--experiment") {
      opt.experiment = next();
    } else if (arg == "--jobs") {
      const char* value = next();
      char* end = nullptr;
      opt.jobs = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0' || opt.jobs < 0) {
        std::fprintf(stderr, "%s: --jobs wants a non-negative integer, got '%s'\n", argv[0],
                     value);
        return 2;
      }
    } else if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--filter") {
      opt.filter = next();
    } else if (arg == "--backend") {
      const std::string value = next();
      if (value == "socket") {
        opt.backend = Backend::kSocket;
      } else if (value == "sim") {
        opt.backend = Backend::kSim;
      } else if (value == "live") {
        std::fprintf(stderr,
                     "%s: --backend live was removed; use --sim-threads N, which runs sync "
                     "scenarios on the in-process round pool with the same report bytes\n",
                     argv[0]);
        return 2;
      } else {
        std::fprintf(stderr, "%s: --backend wants 'sim' or 'socket', got '%s'\n", argv[0],
                     value.c_str());
        return 2;
      }
    } else if (arg == "--transport") {
      const std::string value = next();
      if (value == "tcp") {
        opt.transport_tcp = true;
      } else if (value == "uds") {
        opt.transport_tcp = false;
      } else {
        std::fprintf(stderr, "%s: --transport wants 'uds' or 'tcp', got '%s'\n", argv[0],
                     value.c_str());
        return 2;
      }
    } else if (arg == "--sim-threads") {
      const char* value = next();
      char* end = nullptr;
      opt.sim_threads = static_cast<int>(std::strtol(value, &end, 10));
      if (end == value || *end != '\0' || opt.sim_threads < 1) {
        std::fprintf(stderr, "%s: --sim-threads wants a positive integer, got '%s'\n", argv[0],
                     value);
        return 2;
      }
    } else if (arg == "--timing") {
      opt.timing = true;
    } else if (arg == "--list") {
      opt.list_only = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
      print_usage(argv[0]);
      return 2;
    }
  }

  if (opt.transport_tcp && opt.backend != Backend::kSocket) {
    std::fprintf(stderr, "%s: --transport requires --backend socket\n", argv[0]);
    return 2;
  }
  if (opt.sim_threads > 1 && opt.backend == Backend::kSocket) {
    std::fprintf(stderr,
                 "%s: --sim-threads does not apply to --backend socket (it shards "
                 "simulator runs, and socket rows run on worker processes)\n",
                 argv[0]);
    return 2;
  }
  if (opt.list_only) {
    list_experiments();
    return 0;
  }
  if (opt.experiment.empty()) {
    std::fprintf(stderr, "%s: pick an experiment with --experiment NAME (see --list)\n",
                 argv[0]);
    return 2;
  }

  std::vector<const ExperimentInfo*> selected;
  if (opt.experiment == "all") {
    for (const ExperimentInfo& e : all_experiments()) selected.push_back(&e);
  } else {
    // One name or a comma-separated list, kept in the order given (the JSON
    // array preserves it, so multi-experiment artifacts are reproducible).
    std::size_t pos = 0;
    while (pos <= opt.experiment.size()) {
      const std::size_t comma = opt.experiment.find(',', pos);
      const std::string name = opt.experiment.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      pos = comma == std::string::npos ? opt.experiment.size() + 1 : comma + 1;
      if (name.empty()) continue;
      const ExperimentInfo* e = find_experiment(name);
      if (!e) {
        std::fprintf(stderr, "%s: unknown experiment '%s' (see --list)\n", argv[0],
                     name.c_str());
        return 2;
      }
      selected.push_back(e);
    }
    if (selected.empty()) {
      std::fprintf(stderr, "%s: --experiment got an empty list\n", argv[0]);
      return 2;
    }
  }

  // Each selected experiment with its scenarios, filtered.
  std::vector<std::pair<const ExperimentInfo*, std::vector<Scenario>>> runs;
  bool filter_matched_any = false;
  bool any_sync = false, any_threaded = false;
  for (const ExperimentInfo* e : selected) {
    std::vector<Scenario> scenarios = e->scenarios();
    if (!opt.filter.empty()) {
      std::erase_if(scenarios, [&](const Scenario& s) {
        return s.id.find(opt.filter) == std::string::npos;
      });
      if (scenarios.empty()) {
        // With a single experiment a no-match filter is a hard error; across
        // several (--experiment all) it just skips the experiments it does
        // not touch -- erroring only if it matched nothing anywhere (below).
        if (selected.size() == 1) {
          std::fprintf(stderr, "%s: --filter '%s' matches no scenario of '%s'\n", argv[0],
                       opt.filter.c_str(), e->name.c_str());
          return 2;
        }
        continue;
      }
      filter_matched_any = true;
    }
    // --backend reaches sync rows only: socket workers build registry protocols.
    for (Scenario& s : scenarios) {
      if (s.substrate == Substrate::kSync) {
        any_sync = true;
        s.backend = opt.backend;
        if (opt.transport_tcp) s.params["transport_tcp"] = 1;
      }
      if (s.substrate == Substrate::kSync || s.substrate == Substrate::kByzantine ||
          s.substrate == Substrate::kDynamic) {
        any_threaded = true;
        s.sim_threads = opt.sim_threads;
      }
    }
    runs.emplace_back(e, std::move(scenarios));
  }
  if (!opt.filter.empty() && selected.size() > 1 && !filter_matched_any) {
    std::fprintf(stderr, "%s: --filter '%s' matches no scenario of any experiment\n", argv[0],
                 opt.filter.c_str());
    return 2;
  }
  // A flag that reaches no selected scenario runs exactly as without it,
  // so a cmp against a sim or serial report would compare a run with itself.
  const bool idle_backend = opt.backend != Backend::kSim && !any_sync;
  if (opt.experiment != "all" && (idle_backend || (opt.sim_threads > 1 && !any_threaded))) {
    std::fprintf(stderr,
                 "%s: %s applies to %s scenarios only, and '%s' has none (see --list)\n",
                 argv[0], idle_backend ? "--backend" : "--sim-threads",
                 idle_backend ? "sync" : "sync, byzantine and dynamic", opt.experiment.c_str());
    return 2;
  }

  ParallelScenarioRunner runner(opt.jobs);
  std::vector<std::string> json_docs;
  bool all_ok = true;
  for (const auto& [e, scenarios] : runs) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<ScenarioResult> rows = runner.run(e->name, scenarios);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (!opt.quiet) {
      std::printf("\n=== %s -- %s ===\n%s\n\n", e->name.c_str(), e->title.c_str(),
                  e->claim.c_str());
      std::printf("%s", render_table(aggregate(rows)).c_str());
      std::printf("\n%zu scenarios, %zu runs on %d thread(s) in %.2fs\n", scenarios.size(),
                  rows.size(), runner.jobs(), secs);
    }
    for (const ScenarioResult& row : rows)
      if (!row.ok) {
        all_ok = false;
        std::fprintf(stderr, "FAILED: %s/%s rep %d: %s\n", e->name.c_str(), row.id.c_str(),
                     row.rep, row.violation.c_str());
      }
    if (!opt.json_path.empty()) json_docs.push_back(to_json(e->name, rows, opt.timing));
  }


  if (!opt.json_path.empty()) {
    std::string doc;
    if (json_docs.size() == 1) {
      doc = json_docs.front() + "\n";
    } else {
      doc = "[";
      for (std::size_t i = 0; i < json_docs.size(); ++i) {
        if (i) doc += ',';
        doc += json_docs[i];
      }
      doc += "]\n";
    }
    if (opt.json_path == "-") {
      std::fwrite(doc.data(), 1, doc.size(), stdout);
    } else {
      std::ofstream out(opt.json_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", argv[0], opt.json_path.c_str());
        return 1;
      }
      out << doc;
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace dowork::harness
