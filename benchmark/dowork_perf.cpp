// Pass runner for the repository benchmark (benchmark/run.py).
//
// One invocation runs ONE pass: every job of one workload, one at a time, in
// this process, and prints one JSON line with each job's row, its wall time
// and its set-up time.  run.py launches a fresh process per pass, so peak RSS
// and allocator state are per pass, and does all statistics and output checks.
//
//   dowork_perf --workload NAME --seed N [--trace FILE]
//
// Untraced passes call harness::run_scenario exactly as dowork_bench does.
// The only addition is an attach-only forwarding injector
// (Scenario::injector_override) that stamps the moment Simulator::run
// attaches the adversary: job start -> attach is the job's set-up time.
//
// --trace composes run_do_all's steps here instead (make_processes with each
// process behind a timing proxy, a timing FaultInjector decorator,
// Simulator::run, verify_run), adds per-layer numbers to the JSON line, and
// writes the pass's spans as Chrome trace-event JSON to FILE.  Async jobs,
// which run_do_all does not run, go through run_scenario, timed whole.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runner.h"
#include "fuzz/generator.h"
#include "harness/scenario.h"

// --- counting allocator ------------------------------------------------------
//
// mem.heap_peak_mb and mem.allocs_per_step: a high-water mark of live heap
// bytes (malloc_usable_size on both sides, so frees balance allocations),
// switched on only for traced passes.  Untraced passes pay one relaxed load
// per allocation.

namespace {

std::atomic<bool> g_count_heap{false};
std::atomic<std::int64_t> g_heap_live{0};
std::atomic<std::int64_t> g_heap_peak{0};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (g_count_heap.load(std::memory_order_relaxed)) {
    const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live = g_heap_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    std::int64_t peak = g_heap_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_heap_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
    }
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  if (g_count_heap.load(std::memory_order_relaxed))
    g_heap_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                          std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

namespace {

using dowork::Action;
using dowork::FaultInjector;
using dowork::Round;
using dowork::harness::FaultSpec;
using dowork::harness::Scenario;

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- workloads ---------------------------------------------------------------
//
// Fixed here rather than read from the experiment registry, so that editing
// an experiment cannot move the benchmark.  benchmark/README.md says why each
// workload exists.

Scenario sync_job(std::string id, const char* protocol, std::int64_t n, int t, FaultSpec faults) {
  Scenario s;
  s.id = std::move(id);
  s.protocol = protocol;
  s.cfg = dowork::DoAllConfig{n, t};
  s.faults = std::move(faults);
  return s;
}

// The scale family's adversary for A/B: crash each active worker one chunk
// in, its broadcast cut to one recipient.
FaultSpec chunk_cascade(std::int64_t n, int t) {
  return FaultSpec::cascade(
      static_cast<std::uint64_t>(dowork::ceil_div(n, dowork::int_sqrt_ceil(t)) + 1), t - 1,
      /*prefix=*/1);
}

std::vector<Scenario> make_jobs(const std::string& workload, std::uint64_t seed) {
  std::vector<Scenario> jobs;
  if (workload == "d_agree") {
    const int t = 4096;
    jobs.push_back(sync_job("t=4096/D", "D", 16 * std::int64_t{t}, t,
                            FaultSpec::cascade(2, 16, 0, /*completes=*/true)));
  } else if (workload == "ab_takeover") {
    for (int t : {8192, 16384})
      for (const char* proto : {"A", "B"}) {
        const std::int64_t n = 16 * std::int64_t{t};
        jobs.push_back(sync_job("t=" + std::to_string(t) + "/" + proto, proto, n, t,
                                chunk_cascade(n, t)));
      }
  } else if (workload == "fuzz_mix") {
    // A performance workload needs jobs that verify at every seed, so two
    // things that dowork_fuzz reports as findings are kept out: bound
    // breaches (margins are still computed, but do not fail the job), and
    // Protocol B under on_unit adversaries, where the fuzzer has open
    // sequentiality and 3n-work findings.
    const dowork::fuzz::GeneratorOptions opts{seed, 100};
    for (int index = 0; jobs.size() < 12000; ++index) {
      Scenario s = dowork::fuzz::generate_case(opts, index);
      if (s.protocol == "B" && s.faults.kind() == FaultSpec::Kind::kOnUnit) continue;
      if (s.params.erase("assert_bounds") != 0) s.params["report_bounds"] = 1;
      jobs.push_back(std::move(s));
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return jobs;
}

// --- adversary decorators ----------------------------------------------------

// Forwards every decision point to the real injector and stamps the attach
// time: the end of the job's set-up.  No clock reads after that.
class AttachProbe : public FaultInjector {
 public:
  AttachProbe(std::unique_ptr<FaultInjector> inner, std::int64_t* attached_ns)
      : inner_(std::move(inner)), attached_ns_(attached_ns) {}

  void attach(const dowork::SimObservable& sim) override {
    *attached_ns_ = now_ns();
    inner_->attach(sim);
  }
  void on_round_start(const Round& round) override { inner_->on_round_start(round); }
  std::optional<dowork::CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                           const dowork::SimSnapshot& snap) override {
    return inner_->inspect(proc, round, action, snap);
  }
  std::optional<dowork::MessageFault> on_message(int from, const Round& round,
                                                 const dowork::DeliveryRecord& rec) override {
    return inner_->on_message(from, round, rec);
  }
  bool wants_message_faults() const override { return inner_->wants_message_faults(); }

 protected:
  std::unique_ptr<FaultInjector> inner_;
  std::int64_t* attached_ns_;
};

// --- evaluation timing -------------------------------------------------------
//
// Evaluations are timed by wrapping each process, not by installing a
// StepExecutor: the executor path evaluates a whole round before committing
// any of it, and adversaries that read announced_progress (greedy, jammer)
// then see later processes' new state and can decide differently.  So jobs
// keep the simulator's in-place loop, exactly as run_scenario runs them.

struct EvalStats {
  std::int64_t busy_ns = 0;
  std::uint64_t idle_steps = 0;
};

class TimedProcess final : public dowork::IProcess {
 public:
  TimedProcess(std::unique_ptr<dowork::IProcess> inner, EvalStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  Action on_round(const dowork::RoundContext& ctx, const dowork::InboxView& inbox) override {
    const std::int64_t t0 = now_ns();
    Action a = inner_->on_round(ctx, inbox);
    stats_->busy_ns += now_ns() - t0;
    if (a.idle()) ++stats_->idle_steps;
    return a;
  }
  Round next_wake(const Round& now) const override { return inner_->next_wake(now); }
  std::int64_t known_done_units() const override { return inner_->known_done_units(); }
  std::string describe() const override { return inner_->describe(); }

 private:
  std::unique_ptr<dowork::IProcess> inner_;
  EvalStats* stats_;
};

// One round as the decorator saw it: from its on_round_start to the next.
// The simulator interleaves evaluations with commits, so the round's
// evaluation is a sum, eval_ns, not a phase of its own.
struct RoundMark {
  std::int64_t start = 0;
  std::int64_t eval_ns = 0;
};

// What the timing decorator measured over one job.
struct RoundClock {
  std::int64_t attached = 0;
  std::int64_t last_decision = 0;
  std::int64_t adversary_ns = 0;
  std::uint64_t adversary_calls = 0;
  std::uint64_t crash_plans = 0;
  // Every committed step is inspected once, so inspections count steps.
  std::uint64_t steps = 0;
  std::uint64_t round_steps = 0;
  std::uint64_t max_steps_per_round = 0;
  // The timed processes' counters, read at round boundaries.
  const EvalStats* eval = nullptr;
  std::int64_t busy_at_start = 0;
  // Round marks for trace spans; capped per job, reserved outside the job
  // (dropping them all if the cap is hit: per-phase sums only).
  std::vector<RoundMark>* marks = nullptr;
  bool marks_overflowed = false;
  RoundMark open;

  void open_round(std::int64_t start) {
    open.start = start;
    busy_at_start = eval->busy_ns;
  }

  void close_round() {
    if (open.start == 0) return;
    max_steps_per_round = std::max(max_steps_per_round, round_steps);
    round_steps = 0;
    open.eval_ns = eval->busy_ns - busy_at_start;
    if (marks != nullptr && !marks_overflowed) {
      if (marks->size() == marks->capacity()) {
        marks_overflowed = true;
        marks->clear();
      } else {
        marks->push_back(open);
      }
    }
    open = RoundMark{};
  }
};

// The traced pass's decorator: times every adversary call and marks round
// boundaries.  Two clock reads per decision point.
class TimingInjector final : public AttachProbe {
 public:
  TimingInjector(std::unique_ptr<FaultInjector> inner, RoundClock* clock)
      : AttachProbe(std::move(inner), &clock->attached), clock_(clock) {}

  void on_round_start(const Round& round) override {
    const std::int64_t t0 = now_ns();
    clock_->close_round();
    clock_->open_round(t0);
    inner_->on_round_start(round);
    account(t0);
  }
  std::optional<dowork::CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                           const dowork::SimSnapshot& snap) override {
    const std::int64_t t0 = now_ns();
    ++clock_->steps;
    ++clock_->round_steps;
    std::optional<dowork::CrashPlan> plan = inner_->inspect(proc, round, action, snap);
    if (plan) ++clock_->crash_plans;
    account(t0);
    return plan;
  }
  std::optional<dowork::MessageFault> on_message(int from, const Round& round,
                                                 const dowork::DeliveryRecord& rec) override {
    const std::int64_t t0 = now_ns();
    std::optional<dowork::MessageFault> fault = inner_->on_message(from, round, rec);
    account(t0);
    return fault;
  }

 private:
  void account(std::int64_t t0) {
    const std::int64_t t1 = now_ns();
    clock_->adversary_ns += t1 - t0;
    ++clock_->adversary_calls;
    clock_->last_decision = t1;
  }

  RoundClock* clock_;
};

// --- rows, layers, spans -----------------------------------------------------

struct Row {
  std::string id;
  bool ok = false;
  std::uint64_t work = 0;
  std::uint64_t messages = 0;
  std::uint64_t crashes = 0;
  std::string rounds;
  std::string violation;
  double job_ms = 0;
  double setup_ms = 0;
};

Row row_of(const dowork::harness::ScenarioResult& r) {
  Row row;
  row.id = r.id;
  row.ok = r.ok;
  row.work = r.work;
  row.messages = r.messages;
  row.crashes = r.crashes;
  row.rounds = r.rounds;
  row.violation = r.violation;
  return row;
}

Row row_of(const std::string& id, const dowork::RunMetrics& m, const std::string& violation) {
  Row row;
  row.id = id;
  row.ok = violation.empty();
  row.work = m.work_total;
  row.messages = m.messages_total;
  row.crashes = m.crashes;
  row.rounds = dowork::harness::format_round(m.last_retire_round);
  row.violation = violation;
  return row;
}

// Per-layer sums over the composed (synchronous) jobs of one traced pass.
struct Layers {
  std::int64_t make_processes_ns = 0;
  std::int64_t verify_ns = 0;
  std::int64_t eval_busy_ns = 0;
  std::int64_t sim_self_ns = 0;
  std::int64_t adversary_ns = 0;
  std::uint64_t adversary_calls = 0;
  std::uint64_t crash_plans = 0;
  std::uint64_t steps = 0;
  std::uint64_t idle_steps = 0;
  std::uint64_t stepped_rounds = 0;
  std::uint64_t max_steps_per_round = 0;
  std::uint64_t fast_forward_jumps = 0;
  std::uint64_t units = 0;
  std::uint64_t work = 0;
  std::uint64_t allocs = 0;
  std::int64_t heap_peak_bytes = 0;
  std::int64_t job_ns = 0;
  std::int64_t phase_ns = 0;
};

struct Span {
  const char* name;
  std::int64_t start;
  std::int64_t end;
  int parent;             // index into the span list, -1 for a root
  int job;                // index into the job list
  std::int64_t eval_ns;   // a round's summed evaluations; -1 = none
};

// Spans stay in memory until the pass ends.  Round spans are kept for jobs
// of at most kMaxRoundsPerJob stepped rounds and kMaxRoundSpans in all, so
// that a 12,000-job pass still writes a trace a viewer can open.
class Tracer {
 public:
  static constexpr std::size_t kMaxRoundsPerJob = 10'000;
  static constexpr std::size_t kMaxRoundSpans = 20'000;

  Tracer() { marks_.reserve(kMaxRoundsPerJob); }

  std::vector<RoundMark>* marks_for_job() {
    marks_.clear();
    return round_spans_ < kMaxRoundSpans ? &marks_ : nullptr;
  }

  int add(const char* name, std::int64_t start, std::int64_t end, int parent, int job,
          std::int64_t eval_ns = -1) {
    spans_.push_back(Span{name, start, end, parent, job, eval_ns});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Round spans under `parent`, from the decorator's marks, each carrying
  // its summed evaluation time.
  void add_rounds(const RoundClock& clock, std::int64_t last_end, int parent, int job) {
    if (clock.marks == nullptr || clock.marks_overflowed) return;
    const std::vector<RoundMark>& m = marks_;
    for (std::size_t i = 0; i < m.size(); ++i) {
      const std::int64_t end = i + 1 < m.size() ? m[i + 1].start : last_end;
      add("round", m[i].start, end, parent, job, m[i].eval_ns);
      ++round_spans_;
    }
  }

  bool write(const std::string& path, const std::vector<Row>& rows, std::int64_t origin) const;

 private:
  std::vector<Span> spans_;
  std::vector<RoundMark> marks_;
  std::size_t round_spans_ = 0;
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

bool Tracer::write(const std::string& path, const std::vector<Row>& rows,
                   std::int64_t origin) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\"dowork\",\"ph\":\"X\""
      << ",\"pid\":1,\"tid\":1,\"ts\":" << json_num(static_cast<double>(s.start - origin) / 1e3)
      << ",\"dur\":" << json_num(static_cast<double>(s.end - s.start) / 1e3)
      << ",\"args\":{\"job\":" << json_str(rows[static_cast<std::size_t>(s.job)].id)
      << ",\"span\":" << i << ",\"parent\":" << s.parent;
    if (s.eval_ns >= 0) f << ",\"eval_us\":" << json_num(static_cast<double>(s.eval_ns) / 1e3);
    f << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// --- one job -----------------------------------------------------------------

// The RunOptions run_scenario gives a sync scenario's repetition 0.
dowork::RunOptions run_options(const Scenario& s) {
  dowork::RunOptions opts;
  if (auto it = s.params.find("protocol_param"); it != s.params.end())
    opts.protocol_param = it->second;
  opts.net = s.faults.net;
  opts.sim_threads = s.sim_threads;
  return opts;
}

Row run_untraced(Scenario& s) {
  std::int64_t attached = 0;
  s.injector_override = [faults = s.faults, &attached](std::uint64_t rep) {
    return std::make_unique<AttachProbe>(faults.make(rep), &attached);
  };
  const std::int64_t t0 = now_ns();
  std::vector<dowork::harness::ScenarioResult> results = run_scenario("perf", s);
  const std::int64_t t1 = now_ns();
  s.injector_override = nullptr;
  Row row = row_of(results.at(0));
  row.job_ms = ns_to_ms(t1 - t0);
  row.setup_ms = attached != 0 ? ns_to_ms(attached - t0) : 0.0;
  return row;
}

// run_do_all's steps, composed here with timed processes and the timing
// decorator.
Row run_traced_sim(const Scenario& s, int job, Layers& L, Tracer& T) {
  EvalStats eval;
  RoundClock clock;
  clock.eval = &eval;
  clock.marks = T.marks_for_job();
  const std::int64_t heap_base = g_heap_live.load(std::memory_order_relaxed);
  g_heap_peak.store(heap_base, std::memory_order_relaxed);
  const std::uint64_t allocs_base = g_allocs.load(std::memory_order_relaxed);

  const std::int64_t t_entry = now_ns();
  std::int64_t t_run_end = 0;
  std::int64_t t_verify_end = 0;
  Row row;
  try {
    const dowork::ProtocolInfo& info = dowork::find_protocol(s.protocol);
    const dowork::RunOptions opts = run_options(s);
    s.cfg.validate();
    dowork::Simulator::Options sim_opts;
    sim_opts.strict_one_op = info.strict_one_op && opts.enforce_strict;
    sim_opts.max_stepped_rounds = opts.max_stepped_rounds;
    sim_opts.n_units = s.cfg.n;
    sim_opts.net = opts.net;

    const std::int64_t t_make = now_ns();
    auto procs = dowork::make_processes(info, s.cfg, opts.protocol_param);
    L.make_processes_ns += now_ns() - t_make;
    for (auto& p : procs) p = std::make_unique<TimedProcess>(std::move(p), &eval);
    dowork::Simulator sim(std::move(procs),
                          std::make_unique<TimingInjector>(s.faults.make(0), &clock), sim_opts);

    const dowork::RunMetrics m = sim.run();
    t_run_end = now_ns();
    const std::string violation = dowork::verify_run(info, s.cfg, m);
    t_verify_end = now_ns();
    L.verify_ns += t_verify_end - t_run_end;

    row = row_of(s.id, m, violation);
    L.eval_busy_ns += eval.busy_ns;
    L.idle_steps += eval.idle_steps;
    L.stepped_rounds += m.stepped_rounds;
    L.fast_forward_jumps += m.fast_forward_jumps;
    L.units += static_cast<std::uint64_t>(s.cfg.n);
    L.work += m.work_total;
  } catch (const std::exception& e) {
    row = Row{};
    row.id = s.id;
    row.violation = e.what();
  }
  const std::int64_t t_exit = now_ns();
  L.allocs += g_allocs.load(std::memory_order_relaxed) - allocs_base;
  L.heap_peak_bytes =
      std::max(L.heap_peak_bytes, g_heap_peak.load(std::memory_order_relaxed) - heap_base);
  clock.close_round();
  L.adversary_ns += clock.adversary_ns;
  L.adversary_calls += clock.adversary_calls;
  L.crash_plans += clock.crash_plans;
  L.steps += clock.steps;
  L.max_steps_per_round = std::max(L.max_steps_per_round, clock.max_steps_per_round);

  row.job_ms = ns_to_ms(t_exit - t_entry);
  row.setup_ms = clock.attached != 0 ? ns_to_ms(clock.attached - t_entry) : 0.0;
  if (t_verify_end == 0 || clock.attached == 0) return row;  // threw: no phases

  L.sim_self_ns += (t_run_end - clock.attached) - eval.busy_ns - clock.adversary_ns;
  L.job_ns += t_exit - t_entry;
  L.phase_ns += t_verify_end - t_entry;
  const int root = T.add("job", t_entry, t_exit, -1, job);
  T.add("setup", t_entry, clock.attached, root, job);
  const int run = T.add("run", clock.attached, t_run_end, root, job);
  T.add("verify", t_run_end, t_verify_end, root, job);
  // The last round ends at its last adversary decision.
  T.add_rounds(clock, clock.last_decision != 0 ? clock.last_decision : t_run_end, run, job);
  return row;
}

// Jobs the traced path does not compose (async cases): timed whole.
Row run_traced_other(Scenario& s, int job, Tracer& T) {
  const std::int64_t t0 = now_ns();
  Row row = row_of(run_scenario("perf", s).at(0));
  const std::int64_t t1 = now_ns();
  row.job_ms = ns_to_ms(t1 - t0);
  T.add("job", t0, t1, -1, job);
  return row;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::vector<std::pair<std::string, double>> layer_metrics(const Layers& L) {
  const double steps = static_cast<double>(L.steps);
  return {
      {"core.make_processes_ms", ns_to_ms(L.make_processes_ns)},
      {"core.verify_ms", ns_to_ms(L.verify_ns)},
      {"protocols.eval_ms", ns_to_ms(L.eval_busy_ns)},
      {"protocols.eval_ns_per_step", ratio(static_cast<double>(L.eval_busy_ns), steps)},
      {"protocols.useful_work_ratio",
       ratio(static_cast<double>(L.units), static_cast<double>(L.work))},
      {"sim.self_ms", ns_to_ms(L.sim_self_ns)},
      {"sim.stepped_rounds", static_cast<double>(L.stepped_rounds)},
      {"sim.steps", steps},
      {"sim.max_steps_per_round", static_cast<double>(L.max_steps_per_round)},
      {"sim.fast_forward_jumps", static_cast<double>(L.fast_forward_jumps)},
      {"sim.idle_step_ratio", ratio(static_cast<double>(L.idle_steps), steps)},
      {"adversary.ms", ns_to_ms(L.adversary_ns)},
      {"adversary.calls", static_cast<double>(L.adversary_calls)},
      {"adversary.crash_plans", static_cast<double>(L.crash_plans)},
      {"mem.heap_peak_mb", static_cast<double>(L.heap_peak_bytes) / (1024.0 * 1024.0)},
      {"mem.allocs_per_step", ratio(static_cast<double>(L.allocs), steps)},
      {"trace.phase_coverage",
       ratio(static_cast<double>(L.phase_ns), static_cast<double>(L.job_ns))},
  };
}

// Peak resident set of this process, in MB: VmHWM, not RUSAGE_SELF's
// ru_maxrss, which keeps the pre-exec high-water mark, i.e. the RSS of the
// process that launched this one.
double peak_rss_mb() {
  long kb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0) kb = std::strtol(line.c_str() + 6, nullptr, 10);
  return static_cast<double>(kb) / 1024.0;
}

void append_row(std::ostringstream& out, const Row& r) {
  out << "{\"id\":" << json_str(r.id) << ",\"ok\":" << (r.ok ? "true" : "false")
      << ",\"work\":" << r.work << ",\"messages\":" << r.messages << ",\"crashes\":" << r.crashes
      << ",\"rounds\":" << json_str(r.rounds) << ",\"job_ms\":" << json_num(r.job_ms)
      << ",\"setup_ms\":" << json_num(r.setup_ms);
  if (!r.violation.empty()) out << ",\"violation\":" << json_str(r.violation);
  out << "}";
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --workload NAME --seed N [--trace FILE]\n", argv0);
  return 2;
}

int run_pass(const std::string& workload, std::uint64_t seed, const std::string& trace_path) {
  const bool traced = !trace_path.empty();
  std::vector<Scenario> jobs = make_jobs(workload, seed);
  std::vector<Row> rows;
  rows.reserve(jobs.size());
  Layers layers;
  Tracer tracer;
  g_count_heap.store(traced, std::memory_order_relaxed);
  const std::int64_t origin = now_ns();

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    Scenario& s = jobs[j];
    const int job = static_cast<int>(j);
    if (!traced) {
      rows.push_back(run_untraced(s));
    } else if (s.substrate != dowork::harness::Substrate::kSync) {
      rows.push_back(run_traced_other(s, job, tracer));
    } else {
      rows.push_back(run_traced_sim(s, job, layers, tracer));
    }
  }
  g_count_heap.store(false, std::memory_order_relaxed);

  std::ostringstream out;
  out << "{\"workload\":" << json_str(workload) << ",\"seed\":" << seed
      << ",\"traced\":" << (traced ? "true" : "false")
      << ",\"peak_rss_mb\":" << json_num(peak_rss_mb()) << ",\"jobs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) out << ",";
    append_row(out, rows[i]);
  }
  out << "]";
  if (traced) {
    out << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : layer_metrics(layers)) {
      out << (first ? "" : ",") << json_str(name) << ":" << json_num(value);
      first = false;
    }
    out << "}";
    if (!tracer.write(trace_path, rows, origin)) {
      std::fprintf(stderr, "dowork_perf: cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  out << "}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_path;
  std::optional<std::uint64_t> seed;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || value[0] == '-') return usage(argv[0]);
      seed = v;
    } else if (arg == "--trace") {
      trace_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || !seed) return usage(argv[0]);
  try {
    return run_pass(workload, *seed, trace_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dowork_perf: %s\n", e.what());
    return 2;
  }
}
