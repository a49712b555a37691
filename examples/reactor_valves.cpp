// The paper's motivating scenario (Section 1): before fuel is added to a
// reactor, a set of valves must be verified closed.  Verification is
// idempotent, so it fits the Do-All mold exactly; we need every valve
// checked even if all but one controller node fails mid-procedure.
//
// This example runs Protocol A with a work sink that records which
// controller verified which valve and when, under an adversarial cascade
// that kills each active controller shortly after it takes over.
#include <cstdio>
#include <vector>

#include "core/registry.h"
#include "sim/simulator.h"

int main() {
  using namespace dowork;

  constexpr int kValves = 48;
  constexpr int kControllers = 9;
  DoAllConfig cfg{kValves, kControllers};

  struct Check {
    int controller;
    std::string round;
  };
  std::vector<std::vector<Check>> log(kValves);

  Simulator::Options opts;
  opts.n_units = kValves;
  opts.strict_one_op = true;
  // Adversary: every controller that becomes active dies after verifying 7
  // valves, its checkpoint broadcast reaching a single peer.
  Simulator sim(make_processes(find_protocol("A"), cfg),
                std::make_unique<WorkCascadeFaults>(7, kControllers - 1, /*deliver_prefix=*/1),
                opts);
  sim.set_work_sink([&](int proc, std::int64_t unit, const Round& round) {
    log[static_cast<std::size_t>(unit - 1)].push_back(Check{proc, round.to_string()});
  });
  RunMetrics m = sim.run();

  std::printf("valve verification complete: %s (%llu controller crashes survived)\n\n",
              m.all_units_done() ? "YES" : "NO", static_cast<unsigned long long>(m.crashes));
  std::printf("%-8s %-10s %s\n", "valve", "checks", "verified by (controller@round)");
  std::uint64_t rechecks = 0;
  for (int v = 0; v < kValves; ++v) {
    const auto& checks = log[static_cast<std::size_t>(v)];
    rechecks += checks.size() - 1;
    std::string who;
    for (const Check& c : checks)
      who.append("c").append(std::to_string(c.controller)).append("@").append(c.round).append(" ");
    if (v < 12 || checks.size() > 1)
      std::printf("%-8d %-10zu %s\n", v + 1, checks.size(), who.c_str());
  }
  std::printf("...\nredundant re-checks forced by crashes: %llu (bounded by 2n; checking "
              "twice is safe because verification is idempotent)\n",
              static_cast<unsigned long long>(rechecks));
  std::printf("messages: %llu, rounds: %s\n",
              static_cast<unsigned long long>(m.messages_total),
              m.last_retire_round.to_string().c_str());
  return m.all_units_done() ? 0 : 1;
}
