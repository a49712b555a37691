#include "util/round.h"

#include <cstddef>
#include <new>
#include <stdexcept>
#include <utility>

// Listed blocks are poisoned under AddressSanitizer, so a use of a destroyed
// promoted Round still reports although its block was not freed.
#if defined(__SANITIZE_ADDRESS__)
#define DOWORK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DOWORK_ASAN 1
#endif
#endif

#ifdef DOWORK_ASAN
#include <sanitizer/asan_interface.h>
#define DOWORK_POISON_BLOCK(p) ASAN_POISON_MEMORY_REGION((p), sizeof(BigUint))
#define DOWORK_UNPOISON_BLOCK(p) ASAN_UNPOISON_MEMORY_REGION((p), sizeof(BigUint))
#else
#define DOWORK_POISON_BLOCK(p) static_cast<void>(p)
#define DOWORK_UNPOISON_BLOCK(p) static_cast<void>(p)
#endif

namespace dowork {

namespace {

// A promoted block on its thread's free list; the link lives in the block.
struct FreeBlock {
  FreeBlock* next;
};
static_assert(sizeof(FreeBlock) <= sizeof(BigUint));

// Trivially destructible, so it stays usable for the whole thread (static
// destructors that free a Round run after thread-local destruction).
struct FreeList {
  FreeBlock* head = nullptr;
  std::size_t count = 0;
};
thread_local FreeList t_free;

// Returns the thread's listed blocks at thread exit and closes the list, so
// a Round destroyed later on this thread frees its block directly.
struct FreeListDrain {
  ~FreeListDrain() {
    while (FreeBlock* b = t_free.head) {
      DOWORK_UNPOISON_BLOCK(b);
      t_free.head = b->next;
      ::operator delete(b, sizeof(BigUint));
    }
    t_free.count = Round::kMaxFreeBlocks;
  }
};
thread_local FreeListDrain t_drain;

// Registers the drain for this thread (a thread-local destructor is armed
// by the thread's first use of the variable).  Called before a thread lists
// its first block, and again whenever its list has emptied: cheap beside
// the allocation the list saves.
[[gnu::noinline]] void arm_drain() { static_cast<void>(&t_drain); }

}  // namespace

BigUint* Round::clone(const BigUint& b) {
  void* mem;
  if (FreeBlock* blk = t_free.head) {
    DOWORK_UNPOISON_BLOCK(blk);
    t_free.head = blk->next;
    --t_free.count;
    mem = blk;
  } else {
    mem = ::operator new(sizeof(BigUint));
  }
  return ::new (mem) BigUint(b);
}

void Round::free_block(BigUint* b) noexcept {
  if (t_free.count >= kMaxFreeBlocks) {
    ::operator delete(b, sizeof(BigUint));
    return;
  }
  if (t_free.count == 0) arm_drain();
  FreeBlock* blk = ::new (static_cast<void*>(b)) FreeBlock{t_free.head};
  DOWORK_POISON_BLOCK(blk);
  t_free.head = blk;
  ++t_free.count;
}

Round::Round(const BigUint& v) : lo_(0), big_(nullptr) {
  if (v.fits_u64()) lo_ = v.to_u64_saturating();
  else big_ = clone(v);
}

Round& Round::assign_slow(const Round& o) {
  if (this == &o) return *this;
  lo_ = o.lo_;
  if (o.big_ == nullptr) {
    if (big_ != nullptr) free_block(big_);
    big_ = nullptr;
  } else if (big_ == nullptr) {
    big_ = clone(*o.big_);
  } else {
    *big_ = *o.big_;  // reuse the existing allocation
  }
  return *this;
}

// Same message BigUint throws: a run that underflows produces the identical
// violation text whether the operands were inline or promoted.
void Round::throw_sub_underflow() {
  throw std::underflow_error("BigUint: subtraction underflow");
}

Round Round::pow2(unsigned e) {
  if (e < 64) return Round{std::uint64_t{1} << e};
  return Round(BigUint::pow2(e));  // throws std::overflow_error for e >= 512
}

void Round::set_big(BigUint&& b) {
  if (b.fits_u64()) {  // demote: keep the representation canonical
    lo_ = b.to_u64_saturating();
    if (big_ != nullptr) free_block(big_);
    big_ = nullptr;
    return;
  }
  if (big_ == nullptr) big_ = clone(b);
  else *big_ = std::move(b);
}

// The slow paths widen to 512 bits, compute, and canonicalize.  When *this
// is already promoted the arithmetic runs in place -- no temporary, no
// allocation -- which keeps Protocol C's promoted deadline math at the cost
// the plain BigUint representation had.  (BigUint's throwing operators may
// leave the promoted value partially updated, exactly as they did when
// Round *was* a BigUint; every simulator caller treats a throw as fatal for
// the run.)

Round& Round::add_slow(const Round& rhs) {
  if (big_ != nullptr) {
    // promoted + x >= 2^64: never demotes.
    *big_ += (rhs.big_ != nullptr ? *rhs.big_ : BigUint{rhs.lo_});
    return *this;
  }
  // *this is inline: either rhs is promoted, or this is the small + small
  // carry-out case (rhs inline too).  Widen and let set_big canonicalize.
  BigUint sum{lo_};
  sum += (rhs.big_ != nullptr ? *rhs.big_ : BigUint{rhs.lo_});  // may throw past 2^512
  set_big(std::move(sum));
  return *this;
}

Round& Round::sub_slow(const Round& rhs) {
  BigUint diff = as_big();
  diff -= rhs.as_big();  // throws std::underflow_error below zero
  set_big(std::move(diff));  // the difference may cross back under 2^64
  return *this;
}

Round& Round::mul_slow(std::uint64_t rhs) {
  if (big_ != nullptr && rhs != 0) {
    // promoted * nonzero >= 2^64: never demotes.
    *big_ *= rhs;  // throws std::overflow_error past 2^512
    return *this;
  }
  BigUint prod = as_big();
  prod *= rhs;
  set_big(std::move(prod));  // rhs == 0 demotes back to inline zero
  return *this;
}

Round& Round::shl_slow(unsigned sh) {
  if (big_ != nullptr) {
    // promoted << sh >= 2^64: never demotes (sh == 0 is a no-op).
    *big_ <<= sh;  // throws std::overflow_error when nonzero bits cross 2^512
    return *this;
  }
  BigUint v{lo_};
  v <<= sh;
  set_big(std::move(v));
  return *this;
}

std::string Round::to_string() const {
  return big_ != nullptr ? big_->to_string() : std::to_string(lo_);
}

std::string to_string(const Round& v) { return v.to_string(); }

}  // namespace dowork
