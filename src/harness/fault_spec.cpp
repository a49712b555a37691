#include "harness/fault_spec.h"

#include <cinttypes>
#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "adversary/strategies.h"
#include "util/strings.h"

namespace dowork::harness {

// The grammar names kinds by variant index; keep the enum and the variant in
// lockstep.
static_assert(static_cast<std::size_t>(FaultSpec::Kind::kNone) == 0);
static_assert(std::is_same_v<std::variant_alternative_t<0, FaultSpec::Crash>, std::monostate>);
static_assert(std::is_same_v<
              std::variant_alternative_t<static_cast<std::size_t>(FaultSpec::Kind::kCascade),
                                         FaultSpec::Crash>,
              CascadeSpec>);
static_assert(std::is_same_v<
              std::variant_alternative_t<static_cast<std::size_t>(FaultSpec::Kind::kOnUnit),
                                         FaultSpec::Crash>,
              OnUnitSpec>);
static_assert(std::is_same_v<
              std::variant_alternative_t<static_cast<std::size_t>(FaultSpec::Kind::kRandom),
                                         FaultSpec::Crash>,
              RandomSpec>);
static_assert(std::is_same_v<
              std::variant_alternative_t<static_cast<std::size_t>(FaultSpec::Kind::kScheduled),
                                         FaultSpec::Crash>,
              ScheduledSpec>);
static_assert(std::is_same_v<
              std::variant_alternative_t<static_cast<std::size_t>(FaultSpec::Kind::kAdaptive),
                                         FaultSpec::Crash>,
              AdaptiveSpec>);

namespace {

std::string prefix_str(std::size_t prefix) {
  return prefix == SIZE_MAX ? "all" : std::to_string(prefix);
}

// Numbers are read whole and range-checked per field (util/strings.h), so a
// near miss like "3x" or a count past its field's type is rejected, never
// truncated.  SIZE_MAX is spelled "all", so a numeric prefix stays below it.
std::size_t parse_prefix(const std::string& s) {
  if (s == "all") return SIZE_MAX;
  return static_cast<std::size_t>(parse_u64(s, "FaultSpec prefix", SIZE_MAX - 1));
}

int parse_int(const std::string& s, const std::string& field) {
  return static_cast<int>(parse_u64(s, "FaultSpec " + field, INT_MAX));
}

bool parse_bool(const std::string& s, const std::string& field) {
  if (s != "0" && s != "1")
    throw std::invalid_argument("FaultSpec " + field + ": '" + s + "' is not 0 or 1");
  return s == "1";
}

// Shortest decimal form of p that parses back to the identical double.
std::string double_str(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// Splits "key=value,key=value,..." content; throws on malformed input.
std::vector<std::pair<std::string, std::string>> split_kv(const std::string& body) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string item = body.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("FaultSpec: malformed field '" + item + "'");
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    pos = comma + 1;
  }
  return out;
}

std::string find_kv(const std::vector<std::pair<std::string, std::string>>& kvs,
                    const std::string& key) {
  for (const auto& [k, v] : kvs)
    if (k == key) return v;
  throw std::invalid_argument("FaultSpec: missing field '" + key + "'");
}

bool has_kv(const std::vector<std::pair<std::string, std::string>>& kvs,
            const std::string& key) {
  for (const auto& [k, v] : kvs)
    if (k == key) return true;
  return false;
}

// Renders the crash component alone -- exactly the v1 grammar, so every
// pre-network spec's string is unchanged byte for byte.
std::string crash_to_string(const FaultSpec::Crash& crash) {
  char buf[160];
  switch (static_cast<FaultSpec::Kind>(crash.index())) {
    case FaultSpec::Kind::kNone:
      return "none";
    case FaultSpec::Kind::kCascade: {
      const CascadeSpec& c = std::get<CascadeSpec>(crash);
      std::snprintf(buf, sizeof buf, "cascade(units=%" PRIu64 ",crashes=%d,prefix=%s,completes=%d)",
                    c.units_before_crash, c.max_crashes, prefix_str(c.deliver_prefix).c_str(),
                    c.crash_completes_unit ? 1 : 0);
      return buf;
    }
    case FaultSpec::Kind::kOnUnit: {
      const OnUnitSpec& c = std::get<OnUnitSpec>(crash);
      std::snprintf(buf, sizeof buf, "on_unit(unit=%lld,crashes=%d,prefix=%s)",
                    static_cast<long long>(c.unit), c.max_crashes,
                    prefix_str(c.deliver_prefix).c_str());
      return buf;
    }
    case FaultSpec::Kind::kRandom: {
      const RandomSpec& c = std::get<RandomSpec>(crash);
      std::snprintf(buf, sizeof buf, "random(p=%s,crashes=%d,seed=%" PRIu64 ")",
                    double_str(c.p).c_str(), c.max_crashes, c.seed);
      return buf;
    }
    case FaultSpec::Kind::kScheduled: {
      const ScheduledSpec& c = std::get<ScheduledSpec>(crash);
      std::string out = "scheduled(";
      for (std::size_t i = 0; i < c.entries.size(); ++i) {
        const ScheduledFaults::Entry& e = c.entries[i];
        if (i) out += ';';
        out += std::to_string(e.proc) + "@" + std::to_string(e.on_nth_action) + ":" +
               (e.plan.work_completes ? "1" : "0") + ":" + prefix_str(e.plan.deliver_prefix);
      }
      return out + ")";
    }
    case FaultSpec::Kind::kAdaptive: {
      const AdaptiveSpec& c = std::get<AdaptiveSpec>(crash);
      if (c.max_message_faults > 0)
        std::snprintf(buf, sizeof buf, "adaptive:%s(crashes=%d,jam=%d,seed=%" PRIu64 ")",
                      c.strategy.c_str(), c.max_crashes, c.max_message_faults, c.seed);
      else
        std::snprintf(buf, sizeof buf, "adaptive:%s(crashes=%d,seed=%" PRIu64 ")",
                      c.strategy.c_str(), c.max_crashes, c.seed);
      return buf;
    }
  }
  throw std::logic_error("FaultSpec: bad kind");
}

// Parses one crash component -- the v1 grammar.
FaultSpec::Crash crash_parse(const std::string& text) {
  if (text == "none") return std::monostate{};
  const std::size_t open = text.find('(');
  if (open == std::string::npos || text.back() != ')')
    throw std::invalid_argument("FaultSpec: malformed '" + text + "'");
  const std::string name = text.substr(0, open);
  const std::string body = text.substr(open + 1, text.size() - open - 2);

  if (name == "cascade") {
    const auto kvs = split_kv(body);
    CascadeSpec c;
    c.units_before_crash = parse_u64(find_kv(kvs, "units"), "FaultSpec units");
    c.max_crashes = parse_int(find_kv(kvs, "crashes"), "crashes");
    c.deliver_prefix = parse_prefix(find_kv(kvs, "prefix"));
    c.crash_completes_unit = parse_bool(find_kv(kvs, "completes"), "completes");
    return c;
  }
  if (name == "on_unit") {
    const auto kvs = split_kv(body);
    OnUnitSpec c;
    c.unit = static_cast<std::int64_t>(
        parse_u64(find_kv(kvs, "unit"), "FaultSpec unit", INT64_MAX));
    c.max_crashes = parse_int(find_kv(kvs, "crashes"), "crashes");
    c.deliver_prefix = parse_prefix(find_kv(kvs, "prefix"));
    return c;
  }
  if (name == "random") {
    const auto kvs = split_kv(body);
    RandomSpec c;
    const std::string p = find_kv(kvs, "p");
    char* end = nullptr;
    c.p = std::strtod(p.c_str(), &end);
    if (p.empty() || end != p.c_str() + p.size())
      throw std::invalid_argument("FaultSpec p: '" + p + "' is not a number");
    c.max_crashes = parse_int(find_kv(kvs, "crashes"), "crashes");
    c.seed = parse_u64(find_kv(kvs, "seed"), "FaultSpec seed");
    return c;
  }
  if (name.rfind("adaptive:", 0) == 0) {
    const auto kvs = split_kv(body);
    AdaptiveSpec c;
    c.strategy = name.substr(std::strlen("adaptive:"));
    if (!adversary::is_strategy(c.strategy))
      throw std::invalid_argument("FaultSpec: unknown adaptive strategy '" + c.strategy + "'");
    c.max_crashes = parse_int(find_kv(kvs, "crashes"), "crashes");
    if (has_kv(kvs, "jam")) {
      c.max_message_faults = parse_int(find_kv(kvs, "jam"), "jam");
      if (c.max_message_faults == 0)
        throw std::invalid_argument("FaultSpec: jam budget must be positive (omit when 0)");
    }
    c.seed = parse_u64(find_kv(kvs, "seed"), "FaultSpec seed");
    return c;
  }
  if (name == "scheduled") {
    ScheduledSpec c;
    std::size_t pos = 0;
    while (pos < body.size()) {
      std::size_t semi = body.find(';', pos);
      if (semi == std::string::npos) semi = body.size();
      const std::string item = body.substr(pos, semi - pos);
      const std::size_t at = item.find('@');
      const std::size_t c1 = item.find(':', at);
      const std::size_t c2 = item.find(':', c1 + 1);
      if (at == std::string::npos || c1 == std::string::npos || c2 == std::string::npos)
        throw std::invalid_argument("FaultSpec: malformed schedule entry '" + item + "'");
      ScheduledFaults::Entry e;
      e.proc = parse_int(item.substr(0, at), "proc");
      e.on_nth_action = parse_u64(item.substr(at + 1, c1 - at - 1), "FaultSpec action ordinal");
      e.plan.work_completes = parse_bool(item.substr(c1 + 1, c2 - c1 - 1), "completes");
      e.plan.deliver_prefix = parse_prefix(item.substr(c2 + 1));
      c.entries.push_back(e);
      pos = semi + 1;
    }
    return c;
  }
  throw std::invalid_argument("FaultSpec: unknown adversary '" + name + "'");
}

}  // namespace

std::unique_ptr<FaultInjector> FaultSpec::make(std::uint64_t rep) const {
  switch (kind()) {
    case Kind::kNone:
      return std::make_unique<NoFaults>();
    case Kind::kCascade: {
      const CascadeSpec& c = std::get<CascadeSpec>(crash);
      return std::make_unique<WorkCascadeFaults>(c.units_before_crash, c.max_crashes,
                                                 c.deliver_prefix, c.crash_completes_unit);
    }
    case Kind::kOnUnit: {
      const OnUnitSpec& c = std::get<OnUnitSpec>(crash);
      return std::make_unique<CrashOnUnitFaults>(c.unit, c.max_crashes, c.deliver_prefix);
    }
    case Kind::kRandom: {
      const RandomSpec& c = std::get<RandomSpec>(crash);
      return std::make_unique<RandomFaults>(c.p, c.max_crashes, c.seed + rep);
    }
    case Kind::kScheduled:
      return std::make_unique<ScheduledFaults>(std::get<ScheduledSpec>(crash).entries);
    case Kind::kAdaptive: {
      const AdaptiveSpec& c = std::get<AdaptiveSpec>(crash);
      return std::make_unique<adversary::AdaptiveFaults>(
          adversary::make_strategy(c.strategy, c.seed + rep), c.max_crashes,
          c.max_message_faults);
    }
  }
  throw std::logic_error("FaultSpec: bad kind");
}

std::string FaultSpec::to_string() const {
  if (net.is_noop()) return crash_to_string(crash);
  if (kind() == Kind::kNone) return "net=" + net.to_string();
  return "crash=" + crash_to_string(crash) + ";net=" + net.to_string();
}

FaultSpec FaultSpec::parse(const std::string& text) {
  if (text.empty()) throw std::invalid_argument("FaultSpec: empty spec");
  // Split into top-level parts on ';' at paren depth 0 (scheduled entries
  // and partition windows keep their inner semicolons).
  std::vector<std::string> parts;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    else if (text[i] == ')') --depth;
    else if (text[i] == ';' && depth == 0) {
      parts.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  if (depth != 0) throw std::invalid_argument("FaultSpec: unbalanced parens in '" + text + "'");
  parts.push_back(text.substr(start));
  if (parts.size() > 2)
    throw std::invalid_argument("FaultSpec: too many components in '" + text + "'");

  FaultSpec spec;
  bool have_crash = false, have_net = false;
  for (const std::string& part : parts) {
    if (part.empty()) throw std::invalid_argument("FaultSpec: empty component in '" + text + "'");
    if (part.rfind("net=", 0) == 0) {
      if (have_net)
        throw std::invalid_argument("FaultSpec: duplicate net component in '" + text + "'");
      have_net = true;
      spec.net = NetSpec::parse(part.substr(std::strlen("net=")));
    } else {
      if (have_crash)
        throw std::invalid_argument("FaultSpec: duplicate crash component in '" + text + "'");
      have_crash = true;
      const bool tagged = part.rfind("crash=", 0) == 0;
      spec.crash = crash_parse(tagged ? part.substr(std::strlen("crash=")) : part);
    }
  }
  return spec;
}

FaultSpec FaultSpec::none() { return FaultSpec{}; }

FaultSpec FaultSpec::cascade(std::uint64_t units, int crashes, std::size_t prefix,
                             bool completes) {
  FaultSpec s;
  s.crash = CascadeSpec{units, crashes, prefix, completes};
  return s;
}

FaultSpec FaultSpec::on_unit(std::int64_t unit, int crashes, std::size_t prefix) {
  FaultSpec s;
  s.crash = OnUnitSpec{unit, crashes, prefix};
  return s;
}

FaultSpec FaultSpec::random(double p, int crashes, std::uint64_t seed) {
  FaultSpec s;
  s.crash = RandomSpec{p, crashes, seed};
  return s;
}

FaultSpec FaultSpec::scheduled(std::vector<ScheduledFaults::Entry> entries) {
  FaultSpec s;
  s.crash = ScheduledSpec{std::move(entries)};
  return s;
}

FaultSpec FaultSpec::first_procs_crash(int procs, std::uint64_t nth_action, CrashPlan plan) {
  if (procs <= 0) return none();
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 0; p < procs; ++p) entries.push_back({p, nth_action, plan});
  return scheduled(std::move(entries));
}

FaultSpec FaultSpec::adaptive(const std::string& strategy, int crashes, std::uint64_t seed,
                              int jam) {
  if (!adversary::is_strategy(strategy))
    throw std::invalid_argument("FaultSpec: unknown adaptive strategy '" + strategy + "'");
  FaultSpec s;
  s.crash = AdaptiveSpec{strategy, crashes, jam, seed};
  return s;
}

FaultSpec FaultSpec::with_net(NetSpec net_spec) const {
  FaultSpec s = *this;
  s.net = std::move(net_spec);
  return s;
}

}  // namespace dowork::harness
