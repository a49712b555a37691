#include "fuzz/trace.h"

#include <climits>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "harness/fault_spec.h"
#include "util/strings.h"

namespace dowork::fuzz {

namespace {

harness::Substrate substrate_from(const std::string& name) {
  if (name == "sync") return harness::Substrate::kSync;
  if (name == "async") return harness::Substrate::kAsync;
  throw std::invalid_argument("trace: unsupported substrate '" + name + "'");
}

[[noreturn]] void bad_line(const std::string& line) {
  throw std::invalid_argument("trace: malformed line '" + line + "'");
}

// The strict full-token parser (util/strings.h), reporting the whole line.
std::uint64_t parse_u64(const std::string& tok, const std::string& line,
                        std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  try {
    return dowork::parse_u64(tok, "trace", max);
  } catch (const std::invalid_argument&) {
    bad_line(line);
  }
}

bool parse_bool(const std::string& tok, const std::string& line) {
  if (tok == "0") return false;
  if (tok == "1") return true;
  bad_line(line);
}

}  // namespace

std::string Trace::to_string() const {
  std::ostringstream out;
  out << "dowork-trace v2\n";
  out << "id " << id << "\n";
  out << "substrate " << substrate << "\n";
  out << "protocol " << protocol << "\n";
  out << "n " << n << "\n";
  out << "t " << t << "\n";
  out << "seed " << seed << "\n";
  out << "faults " << faults << "\n";
  for (const auto& [key, value] : params) out << "param " << key << " " << value << "\n";
  out << "crashes " << harness::FaultSpec::scheduled(crashes).to_string() << "\n";
  for (const ScheduledFaults::MessageEntry& m : message_faults)
    out << "msgfault " << m.from << " " << m.on_nth_message << " " << (m.fault.drop ? 1 : 0)
        << " " << m.fault.delay << "\n";
  out << "result ok " << (outcome.ok ? 1 : 0) << "\n";
  out << "result work " << outcome.work << "\n";
  out << "result msgs " << outcome.messages << "\n";
  out << "result effort " << outcome.effort << "\n";
  out << "result crashes " << outcome.crashes << "\n";
  out << "result rounds " << outcome.rounds << "\n";
  // The violation text may contain spaces; it is always the last line's
  // tail, and the line is omitted when empty.
  if (!outcome.violation.empty()) out << "result violation " << outcome.violation << "\n";
  out << "end\n";
  return out.str();
}

Trace Trace::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (std::getline(in, line) && line == "dowork-trace v1")
    throw std::invalid_argument(
        "trace: a 'dowork-trace v1' trace keys decisions by whole-run call ordinal and no "
        "longer replays; re-record it with this build (dowork_fuzz --trace-dir)");
  if (line != "dowork-trace v2")
    throw std::invalid_argument("trace: missing 'dowork-trace v2' header");
  Trace tr;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    auto next = [&]() -> std::string {
      std::string tok;
      if (!(ls >> tok)) bad_line(line);
      return tok;
    };
    auto tail = [&]() -> std::string {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      return rest;
    };
    if (tag == "id") {
      tr.id = next();
    } else if (tag == "substrate") {
      tr.substrate = next();
    } else if (tag == "protocol") {
      tr.protocol = next();
    } else if (tag == "n") {
      tr.n = static_cast<std::int64_t>(parse_u64(next(), line, INT64_MAX));
    } else if (tag == "t") {
      tr.t = static_cast<int>(parse_u64(next(), line, INT_MAX));
    } else if (tag == "seed") {
      tr.seed = parse_u64(next(), line);
    } else if (tag == "faults") {
      tr.faults = next();
    } else if (tag == "param") {
      const std::string key = next();
      const std::string value = next();
      // Params are int64 but always non-negative in practice; reuse the u64
      // parser and narrow.
      tr.params[key] = static_cast<std::int64_t>(parse_u64(value, line, INT64_MAX));
    } else if (tag == "crashes") {
      // FaultSpec's own scheduled(...) grammar, crash component only.
      const harness::FaultSpec spec = harness::FaultSpec::parse(next());
      const auto* sched = std::get_if<harness::ScheduledSpec>(&spec.crash);
      if (sched == nullptr || !spec.net.is_noop()) bad_line(line);
      tr.crashes = sched->entries;
    } else if (tag == "msgfault") {
      ScheduledFaults::MessageEntry m;
      m.from = static_cast<int>(parse_u64(next(), line, INT_MAX));
      m.on_nth_message = parse_u64(next(), line);
      m.fault.drop = parse_bool(next(), line);
      m.fault.delay = parse_u64(next(), line);
      tr.message_faults.push_back(m);
    } else if (tag == "result") {
      const std::string field = next();
      if (field == "ok") {
        tr.outcome.ok = parse_bool(next(), line);
      } else if (field == "work") {
        tr.outcome.work = parse_u64(next(), line);
      } else if (field == "msgs") {
        tr.outcome.messages = parse_u64(next(), line);
      } else if (field == "effort") {
        tr.outcome.effort = parse_u64(next(), line);
      } else if (field == "crashes") {
        tr.outcome.crashes = parse_u64(next(), line);
      } else if (field == "rounds") {
        tr.outcome.rounds = next();
      } else if (field == "violation") {
        tr.outcome.violation = tail();
      } else {
        bad_line(line);
      }
    } else {
      bad_line(line);
    }
  }
  if (!saw_end) throw std::invalid_argument("trace: missing 'end' terminator");
  // The faults string must round-trip the spec grammar; parse it eagerly so
  // a corrupted trace fails at load time, not replay time.
  (void)harness::FaultSpec::parse(tr.faults);
  return tr;
}

harness::Scenario Trace::to_scenario(bool frozen) const {
  harness::Scenario s;
  s.id = id;
  s.group = id;
  s.substrate = substrate_from(substrate);
  s.protocol = protocol;
  s.cfg = DoAllConfig{n, t};
  s.faults = harness::FaultSpec::parse(faults);
  s.seed = seed;
  s.repetitions = 1;
  s.params = params;
  if (frozen) {
    // Copy the decisions by value into the closure: the scenario stays
    // self-contained after the Trace goes away.
    s.injector_override = [crashes = crashes, messages = message_faults](std::uint64_t) {
      return std::make_unique<ScheduledFaults>(crashes, messages);
    };
  }
  return s;
}

// --- RecordingFaults --------------------------------------------------------

RecordingFaults::RecordingFaults(std::unique_ptr<FaultInjector> inner, Trace* out)
    : inner_(std::move(inner)), out_(out) {
  out_->crashes.clear();
  out_->message_faults.clear();
}

void RecordingFaults::attach(const SimObservable& sim) { inner_->attach(sim); }

void RecordingFaults::on_round_start(const Round& round) { inner_->on_round_start(round); }

std::optional<CrashPlan> RecordingFaults::inspect(int proc, const Round& round,
                                                  const Action& action,
                                                  const SimSnapshot& snap) {
  std::optional<CrashPlan> plan = inner_->inspect(proc, round, action, snap);
  if (action.idle()) {
    if (plan)
      throw std::logic_error("RecordingFaults: crash plan for process " + std::to_string(proc) +
                             "'s idle action (sim/fault_injector.h: plans are for steps)");
    return plan;
  }
  const std::uint64_t nth = actions_.next(proc);
  if (plan) out_->crashes.push_back({proc, nth, *plan});
  return plan;
}

std::optional<MessageFault> RecordingFaults::on_message(int from, const Round& round,
                                                        const DeliveryRecord& rec) {
  const std::uint64_t nth = commits_.next(from);
  std::optional<MessageFault> fault = inner_->on_message(from, round, rec);
  if (fault) out_->message_faults.push_back({from, nth, *fault});
  return fault;
}

bool RecordingFaults::wants_message_faults() const { return inner_->wants_message_faults(); }

// --- record / replay entry points -------------------------------------------

harness::Scenario with_recording(const harness::Scenario& s, Trace* out) {
  out->id = s.id;
  out->substrate = harness::to_string(s.substrate);
  out->protocol = s.protocol;
  out->n = s.cfg.n;
  out->t = s.cfg.t;
  out->seed = s.seed;
  out->faults = s.faults.to_string();
  out->params = s.params;
  out->crashes.clear();
  out->message_faults.clear();
  harness::Scenario wrapped = s;
  const harness::FaultSpec spec = s.faults;
  wrapped.injector_override = [spec, out](std::uint64_t rep) {
    return std::make_unique<RecordingFaults>(spec.make(rep), out);
  };
  return wrapped;
}

void fill_outcome(const harness::ScenarioResult& row, Trace* out) {
  out->outcome = outcome_of(row);
}

TraceOutcome outcome_of(const harness::ScenarioResult& row) {
  TraceOutcome o;
  o.ok = row.ok;
  o.work = row.work;
  o.messages = row.messages;
  o.effort = row.effort;
  o.crashes = row.crashes;
  o.rounds = row.rounds;
  o.violation = row.violation;
  return o;
}

RecordedRun run_recorded(const harness::Scenario& s, const std::string& experiment) {
  if (s.repetitions != 1)
    throw std::invalid_argument("run_recorded: traces cover exactly one repetition");
  RecordedRun out;
  const harness::Scenario wrapped = with_recording(s, &out.trace);
  out.row = harness::run_scenario(experiment, wrapped).at(0);
  fill_outcome(out.row, &out.trace);
  return out;
}

harness::ScenarioResult replay(const Trace& trace, bool frozen) {
  const harness::Scenario s = trace.to_scenario(frozen);
  return harness::run_scenario("fuzz_replay", s).at(0);
}

}  // namespace dowork::fuzz
