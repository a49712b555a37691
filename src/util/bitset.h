// Word-packed dynamic bitset for the protocols' view vectors.
//
// Protocol D (and its coordinator variant) exchange views containing the
// outstanding-unit set S (n bits) and the believed-correct set T (t bits),
// and every agreement iteration intersects/unions the views of up to t
// peers.  Stored as one byte per element that merge traffic is O(t^2 * n)
// bytes per phase -- the single largest cost at the scale sweep's t = 1024,
// n = 16384 shape.  Packing 64 elements per word cuts both the memory
// traffic and the merge work by 8-64x without changing any observable
// behavior (the bit values, and hence every message and metric, are
// identical).
//
// Only the operations the protocols need are provided; all of them keep the
// invariant that bits at positions >= size() are zero, so whole-word
// equality, popcount and merge never see garbage.  The word loops that
// dominate Protocol D -- the AND/OR merges, counting and selection -- are
// out of line in bitset.cpp, dispatched at run time to the widest ISA the
// machine has.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace dowork {

class DynBitset;

// An immutable view shared by reference: Protocol D's agreed (S, T) are
// held and broadcast this way, so survivors that agree alias one object and
// a change allocates a fresh one (copy on write, never mutation in place).
// Built only by share_bits, which also stores the set's popcount.
using SharedBits = std::shared_ptr<const DynBitset>;

namespace detail {
// Out-of-line word kernels (bitset.cpp), compiled with target_clones when
// the toolchain supports it: the bulk merges run at the widest vector width
// the machine has, and the counting kernels on the popcnt instruction
// instead of libgcc's software popcount (the library targets baseline
// x86-64, which has no popcnt).  Every phase, each Protocol D survivor
// counts |S| and |T|, ranks itself in T and selects its slice of S
// (work_slice) through them.
void and_words(std::uint64_t* a, const std::uint64_t* b, std::size_t n);
void or_words(std::uint64_t* a, const std::uint64_t* b, std::size_t n);
// Number of set bits at positions [lo, hi) of the words at w.
std::uint64_t count_bits(const std::uint64_t* w, std::size_t lo, std::size_t hi);
// Position of the k-th (0-based) set bit in the n words at w; n * 64 when
// fewer than k+1 bits are set.
std::size_t select_bit(const std::uint64_t* w, std::size_t n, std::uint64_t k);
}  // namespace detail

class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(std::size_t n, bool value = false)
      : n_(n), w_((n + 63) / 64, value ? ~std::uint64_t{0} : 0) {
    mask_tail();
  }

  std::size_t size() const { return n_; }

  bool test(std::size_t i) const { return (w_[i / 64] >> (i % 64)) & 1; }
  void set(std::size_t i) { w_[i / 64] |= std::uint64_t{1} << (i % 64); }
  void reset(std::size_t i) { w_[i / 64] &= ~(std::uint64_t{1} << (i % 64)); }

  // Clears every bit, keeping the size (the simulator's per-round mail mask
  // is reused round over round).
  void reset_all() { std::fill(w_.begin(), w_.end(), 0); }

  // Number of set bits: read, not recounted, on a set sealed by share_bits.
  std::uint64_t count() const {
    return count_.known() ? count_.value : detail::count_bits(w_.data(), 0, n_);
  }

  // Number of set bits at positions < k (k <= size()).  The protocols use
  // this for "my rank among the live processes".
  std::uint64_t count_prefix(std::size_t k) const { return detail::count_bits(w_.data(), 0, k); }

  // Number of set bits at positions in [lo, hi) (lo <= hi <= size()), and
  // clearing them: word by word, the two edge words masked.  Protocol D's S
  // views are a shared S with one such range cleared (protocol_d.h).
  std::uint64_t count_range(std::size_t lo, std::size_t hi) const {
    return detail::count_bits(w_.data(), lo, hi);
  }
  void reset_range(std::size_t lo, std::size_t hi) {
    if (lo >= hi) return;
    for (std::size_t wi = lo / 64; wi <= (hi - 1) / 64; ++wi) w_[wi] &= ~range_mask(wi, lo, hi);
  }
  // Word i with the positions in [lo, hi) cleared (the wire codec writes a
  // cut view this way, with no n-bit temporary).
  std::uint64_t word_without(std::size_t i, std::size_t lo, std::size_t hi) const {
    return w_[i] & ~range_mask(i, lo, hi);
  }

  bool none() const {
    if (count_.known()) return count_.value == 0;
    for (std::uint64_t w : w_)
      if (w) return false;
    return true;
  }
  bool any() const { return !none(); }

  // Index of the k-th (0-based) set bit in increasing position order; size()
  // when fewer than k+1 bits are set.  Protocol D uses this to locate its
  // work-phase slice without materializing the whole outstanding set.
  std::size_t select(std::uint64_t k) const {
    // Bits >= size() are zero, so a found position is below size().
    return std::min(detail::select_bit(w_.data(), w_.size(), k), n_);
  }

  // Index of the first set bit at position >= from; size() when there is
  // none.  Enables O(words + popcount) iteration over sparse sets.
  std::size_t find_next(std::size_t from) const {
    if (from >= n_) return n_;
    std::size_t wi = from / 64;
    std::uint64_t w = w_[wi] & (~std::uint64_t{0} << (from % 64));
    while (true) {
      if (w) return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
      if (++wi == w_.size()) return n_;
      w = w_[wi];
    }
  }

  // Element-wise merge; both operands must have equal size.  The word loops
  // live out of line (bitset.cpp) behind runtime ISA dispatch: Protocol D's
  // agreement merge ANDs ~t views of n bits per iteration, and on x86-64 the
  // AVX-512/AVX2 clones cut the per-view merge from ~295 to ~180 cycles at
  // the scale sweep's n = 16384.  Results are bitwise identical on every
  // path -- dispatch only picks a vector width.
  DynBitset& operator&=(const DynBitset& o) {
    detail::and_words(w_.data(), o.w_.data(), w_.size());
    return *this;
  }
  DynBitset& operator|=(const DynBitset& o) {
    detail::or_words(w_.data(), o.w_.data(), w_.size());
    return *this;
  }

  // True when every set bit of this is set in o (this & ~o is empty);
  // sizes must match.  Protocol D's shared-view merge asks it to learn
  // whether an AND or OR would reproduce one operand, so it can alias that
  // operand instead of allocating the result.
  bool is_subset_of(const DynBitset& o) const {
    for (std::size_t i = 0; i < w_.size(); ++i)
      if (w_[i] & ~o.w_[i]) return false;
    return true;
  }

  // Content only: a sealed count is a cache, not part of the value.
  friend bool operator==(const DynBitset& a, const DynBitset& b) {
    return a.n_ == b.n_ && a.w_ == b.w_;
  }

  // Raw word access for serialization (the socket substrate's wire codec
  // ships view bitsets word-for-word; bit-at-a-time framing would be 64x
  // the work at Protocol D's shapes).  assign_word trusts the caller for
  // non-tail words and re-masks the tail so the bits >= size() invariant
  // survives a decode of hostile bytes.
  std::size_t word_count() const { return w_.size(); }
  std::uint64_t word(std::size_t i) const { return w_[i]; }
  void assign_word(std::size_t i, std::uint64_t w) {
    w_[i] = w;
    if (i + 1 == w_.size()) mask_tail();
  }

 private:
  // The bits of word wi that lie in [lo, hi); zero when the word is outside.
  static std::uint64_t range_mask(std::size_t wi, std::size_t lo, std::size_t hi) {
    const std::size_t first = wi * 64;
    if (lo >= hi || hi <= first || lo >= first + 64) return 0;
    const std::uint64_t below_lo = lo > first ? (std::uint64_t{1} << (lo - first)) - 1 : 0;
    const std::uint64_t from_hi = hi < first + 64 ? ~std::uint64_t{0} << (hi - first) : 0;
    return ~(below_lo | from_hi);
  }

  void mask_tail() {
    if (n_ % 64 && !w_.empty()) w_.back() &= (std::uint64_t{1} << (n_ % 64)) - 1;
  }

  // The popcount share_bits stores in the set it seals, before any other
  // thread can see it: Protocol D's survivors ask |S|, |T|, |u| and "is S
  // empty" of the same shared objects every phase, and each question would
  // otherwise be an O(size / 64) scan per survivor.  A copy or move never
  // carries it (the copy may be mutated), so the mutators need not clear
  // it, and a mutable set -- the simulator's mail mask -- pays one
  // predictable branch in count() and none() and nothing anywhere else.
  struct SealedCount {
    static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};
    std::uint64_t value = kUnknown;
    SealedCount() = default;
    SealedCount(const SealedCount&) noexcept {}
    SealedCount& operator=(const SealedCount&) noexcept {
      value = kUnknown;
      return *this;
    }
    bool known() const { return value != kUnknown; }
  };

  friend SharedBits share_bits(DynBitset b);

  std::size_t n_ = 0;
  std::vector<std::uint64_t> w_;
  SealedCount count_;
};

// Seals b into an immutable shared set with its popcount stored, so that
// count(), none() and any() on it are reads (see DynBitset::SealedCount).
// Counting once here costs what one survivor's count used to; every other
// survivor that shares the object then asks for free.
inline SharedBits share_bits(DynBitset b) {
  auto sealed = std::make_shared<DynBitset>(std::move(b));
  sealed->count_.value = sealed->count();
  return sealed;
}

}  // namespace dowork
