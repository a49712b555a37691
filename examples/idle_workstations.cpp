// The paper's second motivating scenario (Section 1): a LAN where jobs are
// farmed out to idle workstations, and a "failure" is a user reclaiming her
// machine.  Time matters here -- all machines should crunch in parallel --
// so this is Protocol D territory: n/t + 2 rounds when nobody reclaims,
// graceful degradation as machines disappear, and a revert to Protocol A if
// most of the pool vanishes at once.
#include <cstdio>
#include <vector>

#include "core/runner.h"

namespace {

dowork::RunMetrics render_farm(int frames, int machines, int reclaimed,
                               std::vector<std::uint64_t>* per_machine) {
  using namespace dowork;
  // Users reclaim `reclaimed` machines, each after it rendered 5 frames.
  RunMetrics m = run_do_all("D", DoAllConfig{frames, machines},
                            std::make_unique<WorkCascadeFaults>(5, reclaimed, 0))
                     .metrics;
  if (per_machine) *per_machine = m.work_by_proc;
  return m;
}

}  // namespace

int main() {
  using namespace dowork;
  constexpr int kFrames = 320;
  constexpr int kMachines = 16;

  std::printf("Render farm: %d frames across %d idle workstations (Protocol D)\n\n", kFrames,
              kMachines);
  std::printf("%-22s %-8s %-8s %-10s %-8s\n", "scenario", "frames", "redone", "messages",
              "rounds");
  for (int reclaimed : {0, 1, 4, 8, 12}) {
    std::vector<std::uint64_t> per_machine;
    RunMetrics m = render_farm(kFrames, kMachines, reclaimed, &per_machine);
    if (!m.all_units_done()) {
      std::fprintf(stderr, "frames lost!\n");
      return 1;
    }
    char label[64];
    std::snprintf(label, sizeof label, "%d machines reclaimed", reclaimed);
    std::printf("%-22s %-8llu %-8llu %-10llu %-8s\n", label,
                static_cast<unsigned long long>(m.work_total),
                static_cast<unsigned long long>(m.work_total - kFrames),
                static_cast<unsigned long long>(m.messages_total),
                m.last_retire_round.to_string().c_str());
  }

  std::printf("\nLoad balance in the failure-free run:\n");
  std::vector<std::uint64_t> per_machine;
  render_farm(kFrames, kMachines, 0, &per_machine);
  for (int p = 0; p < kMachines; ++p)
    std::printf("  machine %2d: %llu frames\n", p,
                static_cast<unsigned long long>(per_machine[static_cast<std::size_t>(p)]));
  std::printf("\nEvery machine rendered frames in parallel (n/t each); with reclamations the "
              "survivors redo the lost slices, and a mass reclamation falls back to the "
              "sequential checkpointing protocol rather than thrashing.\n");
  return 0;
}
