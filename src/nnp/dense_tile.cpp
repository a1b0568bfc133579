#include "nnp/dense_tile.hpp"

#include <cstddef>

namespace tkmc::detail {
namespace {

// Register block of R rows x NV vectors of outputs: each accumulator
// starts from its bias and adds x[r][c] * w[c][o] with c ascending, then
// the block is stored once. `x` points at row 0, column 0 of the block;
// `w`, `b` and `y` are already offset to the block's first output.
// always_inline puts the body inside each instance, so it is compiled
// for that instance's target and no vector crosses a call.
template <typename V, int R, int NV, typename T>
[[gnu::always_inline]] inline void block(const T* x, int in, const T* w,
                                         const T* b, T* y, int out,
                                         bool relu) {
  constexpr int kLanes = sizeof(V) / sizeof(T);
  V acc[R][NV];
  for (int v = 0; v < NV; ++v) {
    V bv;  // load once, then copy: loading into acc compiled to stack traffic
    simd::load(bv, b + kLanes * v);
    for (int r = 0; r < R; ++r) acc[r][v] = bv;
  }
  for (int c = 0; c < in; ++c) {
    const T* wRow = w + static_cast<std::size_t>(c) * out;
    V wv[NV];
    for (int v = 0; v < NV; ++v) simd::load(wv[v], wRow + kLanes * v);
    for (int r = 0; r < R; ++r) {
      // Broadcast: x - 0 is x exactly, -0 included, and compiles to one
      // broadcast, where a lane-by-lane initializer does not.
      const V xv = x[static_cast<std::size_t>(r) * in + c] - V{};
      for (int v = 0; v < NV; ++v) acc[r][v] += xv * wv[v];
    }
  }
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < NV; ++v) {
      V a = acc[r][v];
      if (relu) a = a < T(0) ? V{} : a;
      simd::store(y + static_cast<std::size_t>(r) * out + kLanes * v, a);
    }
}

// Scalar tail: one output column over R interleaved rows, so the R add
// chains are independent (the out == 1 layer would otherwise be a single
// dependent chain per row).
template <int R, typename T>
[[gnu::always_inline]] inline void column(const T* x, int in, const T* w,
                                          T b, T* y, int out, bool relu) {
  T acc[R];
  for (int r = 0; r < R; ++r) acc[r] = b;
  for (int c = 0; c < in; ++c) {
    const T wc = w[static_cast<std::size_t>(c) * out];
    for (int r = 0; r < R; ++r)
      acc[r] += x[static_cast<std::size_t>(r) * in + c] * wc;
  }
  for (int r = 0; r < R; ++r)
    y[static_cast<std::size_t>(r) * out] =
        relu && acc[r] < T(0) ? T(0) : acc[r];
}

// The kernel: slabs of NV vectors over blocks of R rows, then leftover
// columns. R x NV accumulators, NV weight vectors and one broadcast
// must fit the register file, or the weights spill.
template <typename V, int R, int NV, typename T>
[[gnu::always_inline]] inline void tile(const T* x, const T* w, const T* b,
                                        T* y, int rows, int in, int out,
                                        bool relu) {
  constexpr int kSlab = NV * static_cast<int>(sizeof(V) / sizeof(T));
  auto xRow = [&](int r) { return x + static_cast<std::size_t>(r) * in; };
  auto yAt = [&](int r, int o) {
    return y + static_cast<std::size_t>(r) * out + o;
  };
  int o = 0;
  for (; o + kSlab <= out; o += kSlab) {
    int r = 0;
    for (; r + R <= rows; r += R)
      block<V, R, NV>(xRow(r), in, w + o, b + o, yAt(r, o), out, relu);
    for (; r < rows; ++r)
      block<V, 1, NV>(xRow(r), in, w + o, b + o, yAt(r, o), out, relu);
  }
  for (; o < out; ++o) {
    int r = 0;
    for (; r + 8 <= rows; r += 8)
      column<8>(xRow(r), in, w + o, b[o], yAt(r, o), out, relu);
    for (; r < rows; ++r)
      column<1>(xRow(r), in, w + o, b[o], yAt(r, o), out, relu);
  }
}

}  // namespace

// SSE2 (16 registers of 16 bytes): 2 rows x 4 vectors.
void denseTileSse2(const float* x, const float* w, const float* b, float* y,
                   int rows, int in, int out, bool relu) {
  tile<simd::Vec4f, 2, 4>(x, w, b, y, rows, in, out, relu);
}

void denseTileSse2(const double* x, const double* w, const double* b,
                   double* y, int rows, int in, int out, bool relu) {
  tile<simd::Vec2d, 2, 4>(x, w, b, y, rows, in, out, relu);
}

// AVX2 (16 registers of 32 bytes): 4 rows x 2 vectors. 2 rows x 4
// vectors spills the weight vectors and runs slower than SSE2.
TKMC_TARGET_AVX2 void denseTileAvx2(const float* x, const float* w,
                                    const float* b, float* y, int rows,
                                    int in, int out, bool relu) {
  tile<simd::Vec8f, 4, 2>(x, w, b, y, rows, in, out, relu);
}

TKMC_TARGET_AVX2 void denseTileAvx2(const double* x, const double* w,
                                    const double* b, double* y, int rows,
                                    int in, int out, bool relu) {
  tile<simd::Vec4d, 4, 2>(x, w, b, y, rows, in, out, relu);
}

}  // namespace tkmc::detail
