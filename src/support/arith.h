#pragma once

// Checked 64-bit integer arithmetic and number-theoretic helpers used by the
// polyhedral library.  Fourier-Motzkin elimination multiplies constraint
// coefficients, so every arithmetic operation here detects overflow and
// throws OverflowError instead of silently wrapping.

#include <cstdint>

#include "support/error.h"

namespace polypart {

using i64 = std::int64_t;
using u64 = std::uint64_t;

/// Adds with overflow detection.
inline i64 checkedAdd(i64 a, i64 b) {
  i64 r;
  if (__builtin_add_overflow(a, b, &r)) throw OverflowError("add overflow");
  return r;
}

/// Subtracts with overflow detection.
inline i64 checkedSub(i64 a, i64 b) {
  i64 r;
  if (__builtin_sub_overflow(a, b, &r)) throw OverflowError("sub overflow");
  return r;
}

/// Multiplies with overflow detection.
inline i64 checkedMul(i64 a, i64 b) {
  i64 r;
  if (__builtin_mul_overflow(a, b, &r)) throw OverflowError("mul overflow");
  return r;
}

/// Negates with overflow detection (INT64_MIN has no negation).
inline i64 checkedNeg(i64 a) { return checkedSub(0, a); }

// Two's-complement wrapping arithmetic, computed in unsigned so overflow is
// defined: the semantics of kernel (device) integer arithmetic.
inline i64 wrapAdd(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) + static_cast<u64>(b));
}
inline i64 wrapSub(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) - static_cast<u64>(b));
}
inline i64 wrapMul(i64 a, i64 b) {
  return static_cast<i64>(static_cast<u64>(a) * static_cast<u64>(b));
}
inline i64 wrapNeg(i64 a) { return static_cast<i64>(0 - static_cast<u64>(a)); }

/// f64 -> i64 truncation toward zero, defined on every input: NaN and
/// out-of-range values give INT64_MIN (the x86-64 cvttsd2si result).
inline i64 truncToI64(double x) {
  if (!(x >= -9223372036854775808.0 && x < 9223372036854775808.0))
    return INT64_MIN;
  return static_cast<i64>(x);
}

/// Greatest common divisor of |a| and |b|; gcd(0, 0) == 0.
i64 gcd(i64 a, i64 b);

/// Least common multiple; throws on overflow.
i64 lcm(i64 a, i64 b);

/// Floor division: floorDiv(7, 2) == 3, floorDiv(-7, 2) == -4.
i64 floorDiv(i64 a, i64 b);

/// Ceiling division: ceilDiv(7, 2) == 4, ceilDiv(-7, 2) == -3.
i64 ceilDiv(i64 a, i64 b);

/// Mathematical modulo with result in [0, |b|).
i64 floorMod(i64 a, i64 b);

}  // namespace polypart
