#pragma once

#include <cstring>

/// SIMD lane types and the one CPU check that picks a kernel clone.
///
/// Lanes are GCC vector extensions. Lane arithmetic is plain IEEE
/// arithmetic in the element type, so `acc += x * w` in a lane computes
/// exactly what the scalar statement would: register-blocked kernels
/// built on these types stay bit-identical to their scalar loops as long
/// as each lane keeps the scalar summation order.
///
/// The 16-byte types are baseline x86-64 (SSE2) code with no extra flag.
/// The 32-byte types are meant for functions marked TKMC_TARGET_AVX2 and
/// called only when hasAvx2() is true. Such a clone is `target("avx2")`
/// only: AVX2 has no fused multiply-add (FMA is its own ISA flag), so a
/// clone cannot contract `acc + x * w` into one rounding. Values of the
/// 32-byte types never cross a function boundary by value, which keeps
/// the baseline ABI (and -Wpsabi) out of it.
namespace tkmc::simd {

typedef float Vec4f __attribute__((vector_size(16)));
typedef double Vec2d __attribute__((vector_size(16)));
typedef float Vec8f __attribute__((vector_size(32)));
typedef double Vec4d __attribute__((vector_size(32)));

/// Unaligned load of one vector from p[0 .. lanes).
template <typename V, typename T>
inline void load(V& v, const T* p) {
  std::memcpy(&v, p, sizeof v);
}

/// Unaligned store of one vector to p[0 .. lanes).
template <typename T, typename V>
inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

#if defined(__x86_64__) || defined(__i386__)
#define TKMC_TARGET_AVX2 __attribute__((target("avx2")))

/// True when this CPU runs AVX2. The CPU is asked once per process.
inline bool hasAvx2() {
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
}
#else
#define TKMC_TARGET_AVX2
inline bool hasAvx2() { return false; }
#endif

}  // namespace tkmc::simd
