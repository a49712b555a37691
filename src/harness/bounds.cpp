#include "harness/bounds.h"

#include <algorithm>
#include <stdexcept>

#include "core/work.h"

namespace dowork::harness {

std::vector<std::pair<std::string, std::int64_t>> paper_bounds(const std::string& protocol,
                                                               std::int64_t n, int t,
                                                               int crash_budget) {
  const std::int64_t tt = t;
  if (protocol == "A" || protocol == "B") {
    const std::int64_t s = int_sqrt_ceil(t);
    // Theorem 2.8(c)'s 3n + 8t counts the n in t subchunks of n/t rounds
    // each.  When t does not divide n, B's timeouts budget ceil(n/t) rounds
    // per subchunk (PTO, and GTO's chunk term), so the same account reads
    // 3t * ceil(n/t) + 8t -- exactly 3n + 8t whenever t | n (DESIGN.md,
    // "Protocol B's round bound on ragged shapes").
    const std::int64_t b_rounds = 3 * tt * ceil_div(n, tt) + 8 * tt;
    return {{"bound_work_3n", 3 * n},
            {"bound_msgs", (protocol == "A" ? 9 : 10) * tt * s},
            {"bound_rounds", protocol == "A" ? n * tt + 3 * tt * tt : b_rounds}};
  }
  if (protocol == "C" || protocol == "C_batch") {
    const std::int64_t T = pow2_ceil(t);
    const std::int64_t L = std::max<std::int64_t>(1, log2_of_pow2(static_cast<int>(T)));
    if (protocol == "C_batch") {
      // Theorem 3.8's n + 2t slack charges <= 2 redone units to each of
      // <= t takeover/failure events; Corollary 3.9 batches level-0
      // reports every ceil(n/t) units, so the knowledge a successor takes
      // over with (and the worker's own unreported progress) lags in
      // whole batches and each event redoes up to 2 batches instead of 2
      // units: work <= n + 2t * batch, which reduces to the C bound at
      // batch = 1.  The fuzzer's ragged (t does not divide n) shapes made
      // the inflation measurable; the historical t | n, n = 4t shapes
      // satisfied plain n + 2t empirically, which is why the seed repo
      // never noticed.
      const std::int64_t batch = ceil_div(n, tt);
      return {{"bound_work_batched", n + 2 * tt * batch},
              {"bound_msgs", n + 8 * T * L}};
    }
    return {{"bound_work_n_2t", n + 2 * tt}, {"bound_msgs", n + 8 * T * L}};
  }
  if (protocol == "D") {
    const std::int64_t f = crash_budget;
    return {{"bound_work_2n", 2 * n},
            {"bound_msgs", (4 * f + 2) * tt * tt},
            {"bound_rounds", (f + 1) * ceil_div(n, tt) + 4 * f + 2}};
  }
  throw std::invalid_argument("paper_bounds: no audited bound set for protocol '" + protocol +
                              "'");
}

bool has_paper_bounds(const std::string& protocol) {
  return protocol == "A" || protocol == "B" || protocol == "C" || protocol == "C_batch" ||
         protocol == "D";
}

std::int64_t byzantine_msgs_bound(const std::string& protocol, std::int64_t n, int t) {
  const std::int64_t senders = t + 1;
  if (protocol == "A" || protocol == "B") {
    const std::int64_t q = int_sqrt_ceil(t + 1);
    return n + 10 * senders * q + 10 * q * q + senders;
  }
  if (protocol == "C") {
    const std::int64_t T = pow2_ceil(t + 1);
    return n + 8 * T * log2_of_pow2(static_cast<int>(T)) + 4 * T + senders;
  }
  throw std::invalid_argument("byzantine_msgs_bound: no bound for protocol '" + protocol + "'");
}

}  // namespace dowork::harness
