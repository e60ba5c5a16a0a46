#include "src/common/rng.h"

namespace sled {
namespace {

constexpr size_t kShift = 156;  // MT19937-64's m: the twist's second tap
constexpr uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

// One twisted word: `tap` xor the shifted concatenation of `hi`'s upper bits
// and `lo`'s lower bits, xor the matrix constant when that concatenation is
// odd. The mask form avoids the data-dependent branch of `(y & 1) ? a : 0`.
inline uint64_t Twist(uint64_t tap, uint64_t hi, uint64_t lo) {
  const uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return tap ^ (y >> 1) ^ (-(y & 1) & kMatrixA);
}

}  // namespace

Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateWords; ++i) {
    const uint64_t x = state_[i - 1];
    state_[i] = (x ^ (x >> 62)) * 6364136223846793005ULL + i;
  }
}

void Mt19937_64::Refill() {
  static_assert(kStateWords == 2 * kShift, "the twist runs as two equal halves");
  // First half: the tap state_[k + m] is still the previous block's word.
  for (size_t k = 0; k < kShift; ++k) {
    state_[k] = Twist(state_[k + kShift], state_[k], state_[k + 1]);
  }
  // Second half: the tap state_[k - m] is already twisted, and so is the low
  // bits' source for the last word (state_[0], mirrored past the end).
  state_[kStateWords] = state_[0];
  for (size_t k = kShift; k < kStateWords; ++k) {
    state_[k] = Twist(state_[k - kShift], state_[k], state_[k + 1]);
  }
  next_ = 0;
}

}  // namespace sled
