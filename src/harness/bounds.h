// The paper's per-protocol bound formulas as a library.
//
// Until the fuzzing PR these formulas lived inline in experiments.cpp, once
// per family that asserted them; the fuzzer generates thousands of random
// shapes, so the formulas become a shared, unit-tested oracle instead: the
// experiment families attach these (key, value) bound params through
// experiments.cpp's add_paper_bounds, as does the fuzz campaign, and
// scenario.cpp's assert_bounds checks the measured row against them.
// bounds_test pins every registered row that states one of these keys to
// this oracle's value.
//
// Keys are load-bearing: assert_bounds dispatches on the "bound_work*" /
// "bound_msgs*" / "bound_rounds*" prefix, and the key strings appear
// verbatim as report columns, so they must stay byte-identical to the
// pre-refactor inline params.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dowork::harness {

// Protocol C's deadlines are ~2^(n+t) rounds and must fit Round's promoted
// 512-bit representation: shapes with n + t above this budget are not
// exactly simulable (the scale family and the fuzz generator both cap at
// it).
inline constexpr std::int64_t kCRoundBudget = 440;

// Ordered (param key, bound value) rows for `protocol` at shape (n, t) with
// an adversary holding `crash_budget` crashes -- exactly the params the
// adversary_search tournament asserts per row:
//   A        work <= 3n, msgs <= 9t*sqrt(t), rounds <= nt + 3t^2  (Thm 2.3)
//   B        work <= 3n, msgs <= 10t*sqrt(t), rounds <= 3n + 8t   (Thm 2.8)
//   C        work <= n + 2t, msgs <= n + 8T log T over the padded process
//            count T = pow2_ceil(t); no rounds bound (time is exponential
//            in n + t by design)                                  (Thm 3.8)
//   C_batch  msgs as C; work <= n + 2t * ceil(n/t) -- the C work argument
//            charges <= 2 redone units per takeover event, and batching
//            level-0 reports every ceil(n/t) units turns each redone unit
//            of knowledge into a redone batch, so the n + 2t bound only
//            holds verbatim when reports are per-unit (batch = 1 recovers
//            it exactly) (Cor 3.9)
//   D        with f = crash_budget (valid for f <= t/2 - 1, Theorem 4.1
//            case 1; a majority loss moves the goalposts to the case-2
//            revert bounds): work <= 2n, msgs <= (4f+2)t^2,
//            rounds <= (f+1)*ceil(n/t) + 4f + 2
// The bounds are monotone in the budget, so asserting with the budget when
// fewer crashes actually happen stays sound.  Throws std::invalid_argument
// for protocols without an audited bound set (see has_paper_bounds).
std::vector<std::pair<std::string, std::int64_t>> paper_bounds(const std::string& protocol,
                                                               std::int64_t n, int t,
                                                               int crash_budget);

// True iff paper_bounds knows `protocol` (A, B, C, C_batch, D).
bool has_paper_bounds(const std::string& protocol);

// The `byzantine` family's bound_msgs column: Section 5's Byzantine
// agreement among n processes tolerating t crashes, whose s = t + 1
// senders run `protocol` (A, B or C) on n units:
//   A, B  n + 10s*q + 10q^2 + s, with q = ceil(sqrt(s))
//   C     n + 8T log T + 4T + s, over the padded sender count T = pow2_ceil(s)
// The failure-free bill is exact (n value messages, the general's t, the
// inner protocol's messages); the redo slack is a reference, not a theorem
// for every shape -- DESIGN.md "Byzantine agreement's message bound" derives
// each term.  Throws std::invalid_argument for any other protocol.
std::int64_t byzantine_msgs_bound(const std::string& protocol, std::int64_t n, int t);

}  // namespace dowork::harness
