// The simulator's round-number ("time") type.  Round 0 is the first round.
//
// Dwork-Halpern-Waarts time bounds span from 3n + 8t rounds (Protocol B,
// Theorem 2.8) to ~2^(n+t) rounds (Protocol C, Corollary 3.9).  Round covers
// that span with two tiers: a uint64_t stored inline -- every round number
// Protocols A/B/D, the wake heap, the fault injector and the metrics ever
// see -- and an exact, automatic promotion to a 512-bit BigUint
// (util/biguint.h) held in a separate 64-byte block the moment a value
// crosses 2^64, which only Protocol C's deadline arithmetic does.
// Promotion never saturates and never rounds: the promoted value is the
// exact integer the inline computation overflowed to.
//
// Promotion contract:
//   * Representation invariant: the value is stored inline (big_ == nullptr)
//     exactly when it is < 2^64.  Arithmetic that crosses 2^64 upward
//     promotes; arithmetic that crosses it downward (subtraction, *= 0)
//     demotes.  The representation is therefore canonical: equal values have
//     equal representations.
//   * Ordering is total across representations *because* of that invariant:
//     a promoted value is by construction >= 2^64 and thus greater than any
//     inline value, so small/small compares are one u64 compare, small/big
//     compares are one null check, and big/big compares fall through to
//     BigUint's limb compare.
//   * Overflow semantics are BigUint's, unchanged from when Round *was* a
//     BigUint: +, *, << and pow2 throw std::overflow_error past 2^512, and
//     - throws std::underflow_error below zero (the paper's correctness
//     argument needs deadline arithmetic to fail loudly, never wrap).  An
//     inline receiver is unchanged when its operator throws; a promoted
//     receiver computes in place and may be left partially updated, exactly
//     as a plain BigUint was -- simulator callers treat a throw as fatal
//     for the run.
//
// The arithmetic fast paths are inline below: round arithmetic sits on the
// simulator's scheduling hot path (wake-queue ordering, deadline math), and
// at 16 bytes a Round keeps WakeEntry at 24 bytes instead of the 72 the
// 512-bit representation cost.  Slow paths (anything involving a promoted
// operand or a carry out of the inline word) live in round.cpp.
//
// Promoted blocks: every block is taken by clone() and given back by
// free_block(), the one allocation pair (round.cpp).  A freed block goes
// onto its thread's free list and the next promotion on that thread reuses
// it, so copying or destroying a promoted Round -- Protocol C's every
// deadline, wake and ledger stamp past 2^64 -- costs a 64-byte copy, not a
// malloc/free round trip.  The list holds at most kMaxFreeBlocks (a block
// freed past that goes to ::operator delete, so blocks allocated on one
// thread and freed on another cannot pile up) and is returned at thread
// exit.  Under AddressSanitizer a listed block is poisoned until reused, so
// reading a destroyed promoted Round still reports.  Inline rounds never
// reach the pair: the destructor's null check stays inline.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/biguint.h"

namespace dowork {

class Round {
 public:
  constexpr Round() noexcept : lo_(0), big_(nullptr) {}
  constexpr Round(std::uint64_t v) noexcept : lo_(v), big_(nullptr) {}  // NOLINT: implicit by design
  Round(const BigUint& v);  // NOLINT: implicit -- exact, demotes when v fits u64

  Round(const Round& o) : lo_(o.lo_), big_(o.big_ ? clone(*o.big_) : nullptr) {}
  Round(Round&& o) noexcept : lo_(o.lo_), big_(o.big_) { o.big_ = nullptr; }
  Round& operator=(const Round& o) {
    if (big_ == nullptr && o.big_ == nullptr) [[likely]] {
      lo_ = o.lo_;
      return *this;
    }
    return assign_slow(o);
  }
  Round& operator=(Round&& o) noexcept {
    if (this != &o) {
      if (big_ != nullptr) free_block(big_);
      lo_ = o.lo_;
      big_ = o.big_;
      o.big_ = nullptr;
    }
    return *this;
  }
  ~Round() {
    if (big_ != nullptr) free_block(big_);
  }

  // Promoted blocks one thread keeps for reuse (256 KB).  Measured uncapped
  // on serial runs, a thread never listed more than 1,169 blocks at once: a
  // benchmark fuzz_mix pass (seeds 1, 4, 11), the protocol_c and byzantine
  // experiments ~1,170, the scale family 779.  What grows a list past that
  // is blocks made on RoundPool workers and freed on the simulator's thread
  // (--experiment all reached 5,026), so past the cap a freed block goes
  // back to ::operator delete.
  static constexpr std::size_t kMaxFreeBlocks = 4096;

  // 2^e: inline for e < 64, promoted above.  Throws std::overflow_error for
  // e >= 512 (the promoted representation's limit).
  static Round pow2(unsigned e);

  Round& operator+=(const Round& rhs) {
    if (big_ == nullptr && rhs.big_ == nullptr) [[likely]] {
      std::uint64_t s;
      if (!__builtin_add_overflow(lo_, rhs.lo_, &s)) [[likely]] {
        lo_ = s;
        return *this;
      }
    }
    return add_slow(rhs);
  }

  Round& operator-=(const Round& rhs) {
    if (big_ == nullptr && rhs.big_ == nullptr) [[likely]] {
      if (lo_ < rhs.lo_) throw_sub_underflow();
      lo_ -= rhs.lo_;
      return *this;
    }
    return sub_slow(rhs);
  }

  Round& operator*=(std::uint64_t rhs) {
    if (big_ == nullptr) [[likely]] {
      const unsigned __int128 p = static_cast<unsigned __int128>(lo_) * rhs;
      if (static_cast<std::uint64_t>(p >> 64) == 0) [[likely]] {
        lo_ = static_cast<std::uint64_t>(p);
        return *this;
      }
    }
    return mul_slow(rhs);
  }

  Round& operator<<=(unsigned sh) {
    if (big_ == nullptr) [[likely]] {
      if (lo_ == 0 || sh == 0) return *this;  // 0 << anything == 0, as in BigUint
      if (sh < 64 && (lo_ >> (64 - sh)) == 0) [[likely]] {
        lo_ <<= sh;
        return *this;
      }
    }
    return shl_slow(sh);
  }

  // Each returns its by-value operand by name, so the result is moved out:
  // `return a += b` would copy the promoted block.
  friend Round operator+(Round a, const Round& b) {
    a += b;
    return a;
  }
  friend Round operator-(Round a, const Round& b) {
    a -= b;
    return a;
  }
  friend Round operator*(Round a, std::uint64_t b) {
    a *= b;
    return a;
  }
  friend Round operator*(std::uint64_t a, Round b) {
    b *= a;
    return b;
  }
  friend Round operator<<(Round a, unsigned sh) {
    a <<= sh;
    return a;
  }

  Round& operator++() { return *this += Round{1}; }

  friend bool operator==(const Round& a, const Round& b) {
    if (a.big_ == nullptr && b.big_ == nullptr) [[likely]] return a.lo_ == b.lo_;
    // Canonical representation: a promoted value never equals an inline one.
    return a.big_ != nullptr && b.big_ != nullptr && *a.big_ == *b.big_;
  }
  friend std::strong_ordering operator<=>(const Round& a, const Round& b) {
    if (a.big_ == nullptr && b.big_ == nullptr) [[likely]] return a.lo_ <=> b.lo_;
    if (a.big_ == nullptr) return std::strong_ordering::less;  // promoted >= 2^64
    if (b.big_ == nullptr) return std::strong_ordering::greater;
    return *a.big_ <=> *b.big_;
  }

  bool is_zero() const { return big_ == nullptr && lo_ == 0; }
  // True iff the value is stored inline; by the representation invariant
  // this is exactly "the value fits in a u64".
  bool fits_u64() const { return big_ == nullptr; }
  // Value as u64; saturates to UINT64_MAX when promoted (same as BigUint).
  std::uint64_t to_u64_saturating() const { return big_ == nullptr ? lo_ : UINT64_MAX; }
  // Exact decimal representation, identical to BigUint's for every value.
  std::string to_string() const;
  // floor(log2(v)); returns -1 for zero.  Used for compact reporting of
  // Protocol C's astronomically large round counts ("~2^k").
  int log2_floor() const {
    if (big_ != nullptr) return big_->log2_floor();
    return lo_ == 0 ? -1 : 63 - __builtin_clzll(lo_);
  }
  // The exact value widened to the promoted representation (BigUint interop).
  BigUint as_big() const { return big_ ? *big_ : BigUint{lo_}; }

 private:
  // The one allocation pair behind big_ ("Promoted blocks" above).
  static BigUint* clone(const BigUint& b);
  static void free_block(BigUint* b) noexcept;
  // Copy assignment with a promoted side: reuses, takes or frees big_.
  Round& assign_slow(const Round& o);
  [[noreturn]] static void throw_sub_underflow();
  Round& add_slow(const Round& rhs);
  Round& sub_slow(const Round& rhs);
  Round& mul_slow(std::uint64_t rhs);
  Round& shl_slow(unsigned sh);
  // Installs b as the value, demoting to the inline word when it fits (the
  // canonicalization step every slow path funnels through).
  void set_big(BigUint&& b);

  std::uint64_t lo_;  // the value, when big_ == nullptr
  BigUint* big_;      // owned; non-null iff the value >= 2^64
};

std::string to_string(const Round& v);

}  // namespace dowork
