#include "sim/network_model.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "util/strings.h"

namespace dowork {

namespace {

// Numbers go through the strict full-token parser (util/strings.h): the
// composed grammar promises to reject near-miss strings, so "1x" must not
// silently parse as 1.
int parse_split(const std::string& s) {
  const std::uint64_t v = parse_u64(s, "NetSpec split", 1u << 24);
  if (v == 0) throw std::invalid_argument("NetSpec: bad split '" + s + "'");
  return static_cast<int>(v);
}

double parse_drop(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !(v > 0.0) || v > 1.0)
    throw std::invalid_argument("NetSpec: drop must be in (0,1], got '" + s + "'");
  return v;
}

// Shortest decimal form of v that parses back to the identical double
// (mirrors the FaultSpec grammar's DOUBLE convention).
std::string double_str(double v) {
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

// "LO..HI" with LO <= HI; `field` names the range in error messages.
std::pair<std::uint64_t, std::uint64_t> parse_range(const std::string& s,
                                                    const std::string& field) {
  const std::size_t dots = s.find("..");
  if (dots == std::string::npos)
    throw std::invalid_argument("NetSpec: malformed range '" + s + "'");
  const std::uint64_t lo = parse_u64(s.substr(0, dots), field);
  const std::uint64_t hi = parse_u64(s.substr(dots + 2), field);
  if (hi < lo) throw std::invalid_argument("NetSpec: inverted range '" + s + "'");
  return {lo, hi};
}

}  // namespace

NetSpec NetSpec::latency(std::uint64_t lo, std::uint64_t hi, std::uint64_t seed) {
  NetSpec n;
  n.lat_min = lo;
  n.lat_max = hi;
  n.seed = seed;
  return n;
}

NetSpec NetSpec::lossy(double p, std::uint64_t seed) {
  NetSpec n;
  n.drop = p;
  n.seed = seed;
  return n;
}

NetSpec NetSpec::partition(std::vector<PartitionWindow> windows, std::uint64_t seed) {
  NetSpec n;
  n.partitions = std::move(windows);
  n.seed = seed;
  return n;
}

std::string NetSpec::to_string() const {
  std::string out = "(";
  auto add = [&out](const std::string& field) {
    if (out.size() > 1) out += ',';
    out += field;
  };
  if (lat_max > 0)
    add("lat=" + std::to_string(lat_min) + ".." + std::to_string(lat_max));
  if (drop > 0.0) add("drop=" + double_str(drop));
  if (!partitions.empty()) {
    std::string p = "part=";
    for (std::size_t i = 0; i < partitions.size(); ++i) {
      const PartitionWindow& w = partitions[i];
      if (i) p += ';';
      p += std::to_string(w.from) + ".." + std::to_string(w.until) + "@" +
           std::to_string(w.split);
    }
    add(p);
  }
  add("seed=" + std::to_string(seed));
  return out + ")";
}

NetSpec NetSpec::parse(const std::string& text) {
  if (text.size() < 2 || text.front() != '(' || text.back() != ')')
    throw std::invalid_argument("NetSpec: malformed '" + text + "'");
  const std::string body = text.substr(1, text.size() - 2);
  NetSpec spec;
  bool saw_lat = false, saw_drop = false, saw_part = false, saw_seed = false;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string item = body.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("NetSpec: malformed field '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "lat") {
      if (saw_lat) throw std::invalid_argument("NetSpec: duplicate field 'lat'");
      saw_lat = true;
      const auto [lo, hi] = parse_range(value, "NetSpec lat");
      if (hi == 0) throw std::invalid_argument("NetSpec: lat=0..0 has no effect");
      spec.lat_min = lo;
      spec.lat_max = hi;
    } else if (key == "drop") {
      if (saw_drop) throw std::invalid_argument("NetSpec: duplicate field 'drop'");
      saw_drop = true;
      spec.drop = parse_drop(value);
    } else if (key == "part") {
      if (saw_part) throw std::invalid_argument("NetSpec: duplicate field 'part'");
      saw_part = true;
      std::size_t wpos = 0;
      while (wpos <= value.size()) {
        std::size_t semi = value.find(';', wpos);
        if (semi == std::string::npos) semi = value.size();
        const std::string wtext = value.substr(wpos, semi - wpos);
        const std::size_t at = wtext.find('@');
        if (at == std::string::npos)
          throw std::invalid_argument("NetSpec: malformed window '" + wtext + "'");
        PartitionWindow w;
        const auto [from, until] = parse_range(wtext.substr(0, at), "NetSpec part");
        if (until <= from)
          throw std::invalid_argument("NetSpec: empty window '" + wtext + "'");
        w.from = from;
        w.until = until;
        w.split = parse_split(wtext.substr(at + 1));
        spec.partitions.push_back(w);
        if (semi == value.size()) break;
        wpos = semi + 1;
      }
    } else if (key == "seed") {
      if (saw_seed) throw std::invalid_argument("NetSpec: duplicate field 'seed'");
      saw_seed = true;
      spec.seed = parse_u64(value, "NetSpec seed");
    } else {
      throw std::invalid_argument("NetSpec: unknown field '" + key + "'");
    }
  }
  if (!saw_seed) throw std::invalid_argument("NetSpec: missing field 'seed'");
  if (spec.is_noop())
    throw std::invalid_argument("NetSpec: component with no effect '" + text + "'");
  return spec;
}

bool NetworkModel::severed(int from, int to, std::uint64_t now) const {
  for (const PartitionWindow& w : spec_.partitions) {
    if (now < w.from || now >= w.until) continue;
    if ((from < w.split) != (to < w.split)) return true;
  }
  return false;
}

}  // namespace dowork
