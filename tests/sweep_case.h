// The grid point of the per-protocol sweep suites (Grid/Protocol*Sweep,
// Grid/DCoordSweep), with a GoogleTest printer: a CTest name then ends in
// "GetParam() = n=16 t=4 faults=1 seed=0", stable across runs, not in the
// struct's raw bytes.  Each suite maps `fault_mode` to its own injector.
#pragma once

#include <cstdint>
#include <ostream>

namespace dowork {

struct SweepCase {
  std::int64_t n;
  int t;
  int fault_mode;  // 0 none, 1 and 2 work cascades, 3 random
  unsigned seed;
};

inline void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " faults=" << c.fault_mode << " seed=" << c.seed;
}

}  // namespace dowork
