// GoogleTest printer for DynBitset: a failed EXPECT_EQ on two bitsets shows
// their size and set bit ids, e.g. "DynBitset(70){0, 63, 64}", not the
// object's raw bytes.  Every test file that compares bitsets includes it, so
// all of a binary's bitset comparisons print alike.
#pragma once

#include <cstddef>
#include <ostream>

#include "util/bitset.h"

namespace dowork {

inline void PrintTo(const DynBitset& b, std::ostream* os) {
  *os << "DynBitset(" << b.size() << "){";
  const char* sep = "";
  for (std::size_t i = b.find_next(0); i < b.size(); i = b.find_next(i + 1)) {
    *os << sep << i;
    sep = ", ";
  }
  *os << "}";
}

}  // namespace dowork
