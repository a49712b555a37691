// Network-fault model: latency, loss, and partitions as first-class
// adversaries.
//
// The paper's adversary crashes processes; its protocols nonetheless assume a
// network that delivers every surviving send by the next round (sync) or
// within a bounded delay (async).  NetSpec declares the ways this PR lets the
// network itself misbehave, and NetworkModel is the run-time oracle both
// substrates consult at delivery-commit time:
//
//   latency    One uniform draw in [lat_min, lat_max].  The synchronous
//              simulator draws once per committed record -- the sender's
//              uplink delay, shifting the whole broadcast to round
//              r + 1 + d -- so a delayed broadcast stays ONE ledger record.
//              The asynchronous simulator draws once per link, which is
//              exactly its historical ad-hoc [min_delay, max_delay] draw:
//              with no NetSpec the async substrate wraps its option knobs in
//              a NetworkModel and reproduces the old byte stream verbatim.
//   loss       Seeded Bernoulli per link (probability `drop`), drawn in
//              ascending recipient order over the crash-cut audience prefix.
//              A lost recipient is an audience-bitset edit on the record,
//              not per-recipient bookkeeping.
//   partition  Scheduled split/heal windows, each a bipartition of the
//              process ids at a split point: while a window is in force,
//              links crossing the cut are severed.  Deterministic -- severed
//              links consume no randomness -- and applied at send-commit
//              time: a send committed while the cut is in force is lost even
//              if the partition heals before the delivery round.
//
// Decision order at commit time (the draw stream the determinism contract
// pins): the fault injector's message hook first (adversarial drop/delay,
// sim/fault_injector.h), then the partition filter, then one loss draw per
// surviving prefix member, then -- if the record still has an audience --
// one latency draw.  All randomness comes from a dedicated Rng seeded with
// NetSpec::seed (+ rep in the harness), so crash schedules and network
// weather are independently reproducible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dowork {

// One scheduled partition window: while `from <= now < until`, process ids
// [0, split) and [split, t) cannot exchange messages.  `now` is the stepped
// round (sync) or the event time (async).
struct PartitionWindow {
  std::uint64_t from = 0;
  std::uint64_t until = 0;  // heal time, exclusive
  int split = 1;            // ids below the split vs the rest
  friend bool operator==(const PartitionWindow&, const PartitionWindow&) = default;
};

// Declarative network component of a FaultSpec (harness/fault_spec.h owns
// the composed grammar; the "net=(...)" part round-trips through the
// to_string/parse pair below).  A default NetSpec is a no-op: every knob at
// its default leaves both substrates bit-for-bit unchanged.
struct NetSpec {
  // Extra delivery latency, uniform in [lat_min, lat_max]; lat_max == 0
  // disables the component.  Sync: whole extra rounds on top of the normal
  // next-round delivery.  Async: the link delay itself, replacing the
  // substrate's [min_delay, max_delay] option knobs.
  std::uint64_t lat_min = 0;
  std::uint64_t lat_max = 0;
  // Per-link loss probability; 0 disables the component.
  double drop = 0.0;
  // Scheduled split/heal windows (may overlap; a link is severed while any
  // window covering `now` separates its endpoints).
  std::vector<PartitionWindow> partitions;
  // Seed for the latency/loss draws.  The synchronous substrate gives the
  // network its own Rng(seed + rep); the asynchronous substrate draws from
  // its single event Rng (AsyncSim::Options::seed) and ignores this field.
  std::uint64_t seed = 0;

  bool is_noop() const { return lat_max == 0 && drop == 0.0 && partitions.empty(); }

  // Builders for the scenario generators (fields stay public; chain by
  // assignment for composed weather).
  static NetSpec latency(std::uint64_t lo, std::uint64_t hi, std::uint64_t seed = 0);
  static NetSpec lossy(double p, std::uint64_t seed = 0);
  static NetSpec partition(std::vector<PartitionWindow> windows, std::uint64_t seed = 0);

  // The "(...)" part of the composed FaultSpec grammar, active fields only
  // (seed always), e.g. "(lat=1..20,drop=0.05,part=8..40@4,seed=7)".
  // parse() accepts exactly what to_string() emits for non-noop specs and
  // throws std::invalid_argument on anything else, including a field-free
  // or effect-free body.
  std::string to_string() const;
  static NetSpec parse(const std::string& text);

  friend bool operator==(const NetSpec&, const NetSpec&) = default;
};

// Run-time oracle over one NetSpec.  Stateless beyond the spec: callers own
// the Rng (the sync simulator a dedicated one, the async simulator its event
// stream), so the model itself never breaks run-purity.
class NetworkModel {
 public:
  NetworkModel() = default;
  explicit NetworkModel(NetSpec spec) : spec_(std::move(spec)) {}

  bool is_noop() const { return spec_.is_noop(); }
  bool has_latency() const { return spec_.lat_max > 0; }
  bool has_drop() const { return spec_.drop > 0.0; }
  bool has_partitions() const { return !spec_.partitions.empty(); }
  const NetSpec& spec() const { return spec_; }

  // One latency draw in [lat_min, lat_max].
  std::uint64_t delay(Rng& rng) const { return rng.uniform(spec_.lat_min, spec_.lat_max); }
  // One loss draw for one link.
  bool drops(Rng& rng) const { return rng.chance(spec_.drop); }
  // True when some window in force at `now` puts `from` and `to` on
  // opposite sides of its cut.  Deterministic.
  bool severed(int from, int to, std::uint64_t now) const;

 private:
  NetSpec spec_;
};

}  // namespace dowork
