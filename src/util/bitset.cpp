#include "util/bitset.h"

// Runtime ISA dispatch for the word loops.  DOWORK_HAVE_TARGET_CLONES is
// probed by CMake (check_cxx_source_compiles) because attribute support
// alone does not guarantee the arch=x86-64-v* clone names resolve on every
// toolchain.  Every clone executes the same word-wise AND/OR and the same
// popcounts, so results are bitwise identical regardless of which one the
// loader picks: the v3/v4 clones only get the wider vectors and the popcnt
// instruction, where the default clone's std::popcount is libgcc's software
// __popcountdi2 (the library is deliberately built for baseline x86-64).
#if defined(DOWORK_HAVE_TARGET_CLONES)
#define DOWORK_BITSET_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define DOWORK_BITSET_CLONES
#endif

namespace dowork::detail {

DOWORK_BITSET_CLONES
void and_words(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] &= b[i];
}

DOWORK_BITSET_CLONES
void or_words(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] |= b[i];
}

DOWORK_BITSET_CLONES
std::uint64_t count_bits(const std::uint64_t* w, std::size_t lo, std::size_t hi) {
  if (lo >= hi) return 0;
  const std::size_t first = lo / 64;
  const std::size_t last = (hi - 1) / 64;
  const std::uint64_t from_lo = ~std::uint64_t{0} << (lo % 64);
  const std::uint64_t below_hi = ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
  if (first == last)
    return static_cast<std::uint64_t>(std::popcount(w[first] & from_lo & below_hi));
  // The edge words masked, the whole words between them as they are.
  std::uint64_t c = static_cast<std::uint64_t>(std::popcount(w[first] & from_lo));
  for (std::size_t i = first + 1; i < last; ++i)
    c += static_cast<std::uint64_t>(std::popcount(w[i]));
  return c + static_cast<std::uint64_t>(std::popcount(w[last] & below_hi));
}

DOWORK_BITSET_CLONES
std::size_t select_bit(const std::uint64_t* w, std::size_t n, std::uint64_t k) {
  for (std::size_t wi = 0; wi < n; ++wi) {
    const auto pc = static_cast<std::uint64_t>(std::popcount(w[wi]));
    if (k < pc) {
      std::uint64_t x = w[wi];
      for (; k > 0; --k) x &= x - 1;  // drop the k lowest set bits
      return wi * 64 + static_cast<std::size_t>(std::countr_zero(x));
    }
    k -= pc;
  }
  return n * 64;
}

}  // namespace dowork::detail
