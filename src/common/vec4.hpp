#pragma once

#include <cstring>

namespace tkmc {

/// Four single-precision lanes (GCC vector extension; SSE2 on baseline
/// x86-64, no extra compile flags). Lane arithmetic is plain IEEE single
/// precision, so `acc += x * w` in a lane computes exactly what the
/// scalar statement would: register-blocked kernels built on it stay
/// bit-identical to their scalar loops as long as each lane keeps the
/// scalar summation order.
typedef float Vec4 __attribute__((vector_size(16)));

/// Unaligned load of p[0..3].
inline Vec4 load4(const float* p) {
  Vec4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Unaligned store to p[0..3].
inline void store4(float* p, Vec4 v) { std::memcpy(p, &v, sizeof v); }

}  // namespace tkmc
