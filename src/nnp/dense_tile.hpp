#pragma once

#include "common/simd.hpp"

namespace tkmc::detail {

/// One dense layer over a tile: x [rows][in] -> y [rows][out] with
/// channel-major [in][out] weights `w`, bias `b` and optional ReLU. Every
/// output starts from its bias and adds x[r][c] * w[c][o] with c
/// ascending, so each instance is bit-identical to the plain per-row
/// loop: register blocking decides which outputs are computed together,
/// never the order of a sum. `x` and `y` must not overlap. The Avx2
/// instances may run only when simd::hasAvx2(); denseTile() runs the
/// instance this CPU supports.
void denseTileSse2(const float* x, const float* w, const float* b, float* y,
                   int rows, int in, int out, bool relu);
void denseTileSse2(const double* x, const double* w, const double* b,
                   double* y, int rows, int in, int out, bool relu);
void denseTileAvx2(const float* x, const float* w, const float* b, float* y,
                   int rows, int in, int out, bool relu);
void denseTileAvx2(const double* x, const double* w, const double* b,
                   double* y, int rows, int in, int out, bool relu);

template <typename T>
inline void denseTile(const T* x, const T* w, const T* b, T* y, int rows,
                      int in, int out, bool relu) {
  if (simd::hasAvx2()) return denseTileAvx2(x, w, b, y, rows, in, out, relu);
  denseTileSse2(x, w, b, y, rows, in, out, relu);
}

}  // namespace tkmc::detail
