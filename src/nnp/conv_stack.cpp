#include "nnp/conv_stack.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/vec4.hpp"

namespace tkmc {
namespace {

// Codegen control for the Fig. 10 rungs. The paper's "base" and
// "matmul" rungs ran scalar code (MPE / pre-SIMD CPE), while the later
// rungs use the CPE vector units. On a host the compiler would happily
// vectorize every variant, erasing the distinction the figure measures,
// so the scalar rungs are pinned to non-vectorizing codegen and the SIMD
// rungs to aggressive vectorization. The structural differences (access
// patterns, number of main-memory passes) are real either way and drive
// the traffic accounting.
#if defined(__GNUC__) && !defined(__clang__)
#define TKMC_SCALAR_KERNEL __attribute__((optimize("O1", "no-tree-vectorize")))
#define TKMC_VECTOR_KERNEL __attribute__((optimize("O3", "tree-vectorize")))
#else
#define TKMC_SCALAR_KERNEL
#define TKMC_VECTOR_KERNEL
#endif

// ---- scalar rung kernels ----

TKMC_SCALAR_KERNEL void convPixelScalar(const float* x, const float* wConv,
                                        float* y, int in, int out) {
  // Conv2D layout: output-channel outer loop over channel-major weights,
  // stride `out` floats per input-channel step (the im2col-free pattern).
  for (int o = 0; o < out; ++o) {
    float acc = 0.0f;
    for (int c = 0; c < in; ++c)
      acc += x[c] * wConv[static_cast<std::size_t>(c) * out + o];
    y[o] = acc;
  }
}

TKMC_SCALAR_KERNEL void matmulPixelScalar(const float* x,
                                          const float* wRowMajor, float* y,
                                          int in, int out) {
  // GEMM layout: contiguous weight rows, unit-stride dot products.
  for (int o = 0; o < out; ++o) {
    const float* wRow = wRowMajor + static_cast<std::size_t>(o) * in;
    float acc = 0.0f;
    for (int c = 0; c < in; ++c) acc += wRow[c] * x[c];
    y[o] = acc;
  }
}

TKMC_SCALAR_KERNEL void biasPassScalar(float* y, const float* b, int m,
                                       int out) {
  for (int px = 0; px < m; ++px)
    for (int o = 0; o < out; ++o)
      y[static_cast<std::size_t>(px) * out + o] += b[o];
}

TKMC_SCALAR_KERNEL void reluPassScalar(float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] < 0.0f ? 0.0f : y[i];
}

// ---- vectorized rung kernels ----

TKMC_VECTOR_KERNEL void matmulPixelSimd(const float* __restrict__ x,
                                        const float* __restrict__ wConv,
                                        float* __restrict__ y, int in,
                                        int out) {
  for (int o = 0; o < out; ++o) y[o] = 0.0f;
  for (int c = 0; c < in; ++c) {
    const float xv = x[c];
    const float* __restrict__ wRow = wConv + static_cast<std::size_t>(c) * out;
    for (int o = 0; o < out; ++o) y[o] += xv * wRow[o];
  }
}

TKMC_VECTOR_KERNEL void biasPassSimd(float* __restrict__ y,
                                     const float* __restrict__ b, int m,
                                     int out) {
  for (int px = 0; px < m; ++px)
    for (int o = 0; o < out; ++o)
      y[static_cast<std::size_t>(px) * out + o] += b[o];
}

TKMC_VECTOR_KERNEL void reluPassSimd(float* __restrict__ y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] < 0.0f ? 0.0f : y[i];
}

// ---- traffic accounting ----

void chargeMatmul(Traffic* t, int m, int in, int out) {
  if (!t) return;
  t->mainReadBytes += static_cast<std::uint64_t>(m) * in * sizeof(float);
  t->mainReadBytes += static_cast<std::uint64_t>(in) * out * sizeof(float);
  t->mainWriteBytes += static_cast<std::uint64_t>(m) * out * sizeof(float);
  t->flops += 2ULL * m * in * out;
}

void chargeElementwisePass(Traffic* t, int m, int out) {
  if (!t) return;
  t->mainReadBytes += static_cast<std::uint64_t>(m) * out * sizeof(float);
  t->mainWriteBytes += static_cast<std::uint64_t>(m) * out * sizeof(float);
  t->flops += static_cast<std::uint64_t>(m) * out;
}

// ---- fused tile kernel ----

// Rows per register block of a 16-wide output slab: 2 rows x 4 vectors
// of accumulators, plus the four weight vectors and the broadcast input,
// fit the 16 SSE registers without spilling.
constexpr int kSlabRows = 2;

// Register block of R rows x 16 outputs: each accumulator starts from
// its bias and adds x[r][c] * w[c][o] with c ascending, then the block
// is stored once. `x` points at row 0, column 0 of the block; `w`, `b`
// and `y` are already offset to the block's first output.
template <int R>
TKMC_VECTOR_KERNEL inline void convBlock16(const float* x, int in,
                                           const float* w, const float* b,
                                           float* y, int out, bool relu) {
  Vec4 acc[R][4];
  for (int v = 0; v < 4; ++v) {
    const Vec4 bv = load4(b + 4 * v);
    for (int r = 0; r < R; ++r) acc[r][v] = bv;
  }
  for (int c = 0; c < in; ++c) {
    const float* wRow = w + static_cast<std::size_t>(c) * out;
    Vec4 wv[4];
    for (int v = 0; v < 4; ++v) wv[v] = load4(wRow + 4 * v);
    for (int r = 0; r < R; ++r) {
      const float xs = x[static_cast<std::size_t>(r) * in + c];
      const Vec4 xv = {xs, xs, xs, xs};
      for (int v = 0; v < 4; ++v) acc[r][v] += xv * wv[v];
    }
  }
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < 4; ++v) {
      Vec4 a = acc[r][v];
      if (relu) a = a < 0.0f ? Vec4{} : a;
      store4(y + static_cast<std::size_t>(r) * out + 4 * v, a);
    }
}

// Scalar tail: one output column over R interleaved rows, so the R add
// chains are independent (the out == 1 layer would otherwise be a single
// dependent chain per row).
template <int R>
TKMC_VECTOR_KERNEL inline void convColumn(const float* x, int in,
                                          const float* w, float b, float* y,
                                          int out, bool relu) {
  float acc[R];
  for (int r = 0; r < R; ++r) acc[r] = b;
  for (int c = 0; c < in; ++c) {
    const float wc = w[static_cast<std::size_t>(c) * out];
    for (int r = 0; r < R; ++r)
      acc[r] += x[static_cast<std::size_t>(r) * in + c] * wc;
  }
  for (int r = 0; r < R; ++r)
    y[static_cast<std::size_t>(r) * out] =
        relu && acc[r] < 0.0f ? 0.0f : acc[r];
}

}  // namespace

namespace detail {

TKMC_VECTOR_KERNEL void fusedConvTile(const float* x,
                                      const float* weightsChannelMajor,
                                      const float* bias, float* y, int rows,
                                      int in, int out, bool relu) {
  auto xRow = [&](int r) { return x + static_cast<std::size_t>(r) * in; };
  auto yAt = [&](int r, int o) {
    return y + static_cast<std::size_t>(r) * out + o;
  };
  const float* w = weightsChannelMajor;
  int o = 0;
  for (; o + 16 <= out; o += 16) {
    int r = 0;
    for (; r + kSlabRows <= rows; r += kSlabRows)
      convBlock16<kSlabRows>(xRow(r), in, w + o, bias + o, yAt(r, o), out,
                             relu);
    for (; r < rows; ++r)
      convBlock16<1>(xRow(r), in, w + o, bias + o, yAt(r, o), out, relu);
  }
  for (; o < out; ++o) {
    int r = 0;
    for (; r + 8 <= rows; r += 8)
      convColumn<8>(xRow(r), in, w + o, bias[o], yAt(r, o), out, relu);
    for (; r < rows; ++r)
      convColumn<1>(xRow(r), in, w + o, bias[o], yAt(r, o), out, relu);
  }
}

}  // namespace detail

ConvStack::ConvStack(Network::Snapshot snapshot)
    : snapshot_(std::move(snapshot)) {
  require(!snapshot_.weights.empty(), "conv stack needs at least one layer");
  weightsChannelMajor_.resize(snapshot_.weights.size());
  for (std::size_t li = 0; li < snapshot_.weights.size(); ++li) {
    const int in = snapshot_.channels[li];
    const int out = snapshot_.channels[li + 1];
    auto& cm = weightsChannelMajor_[li];
    cm.resize(static_cast<std::size_t>(in) * out);
    for (int o = 0; o < out; ++o)
      for (int c = 0; c < in; ++c)
        cm[static_cast<std::size_t>(c) * out + o] =
            snapshot_.weights[li][static_cast<std::size_t>(o) * in + c];
  }
}

void ConvStack::forward(Mode mode, const float* input, int m, float* output,
                        Traffic* traffic) const {
  require(m > 0, "batch must be non-empty");
  switch (mode) {
    case Mode::kNaiveConv: forwardNaive(input, m, output, traffic); return;
    case Mode::kMatmul: forwardMatmul(input, m, output, traffic); return;
    case Mode::kMatmulSimd: forwardSimd(input, m, output, traffic); return;
    case Mode::kFusedLayer: forwardFused(input, m, output, traffic); return;
  }
}

Traffic ConvStack::layerTraffic(int layer, int m, bool fused) const {
  const int in = snapshot_.channels[static_cast<std::size_t>(layer)];
  const int out = snapshot_.channels[static_cast<std::size_t>(layer) + 1];
  const bool lastLayer = layer + 1 == numLayers();
  Traffic t;
  chargeMatmul(&t, m, in, out);
  if (fused) {
    // Bias and ReLU happen in registers; only their FLOPs count.
    t.flops += static_cast<std::uint64_t>(m) * out * (lastLayer ? 1 : 2);
  } else {
    chargeElementwisePass(&t, m, out);                  // bias pass
    if (!lastLayer) chargeElementwisePass(&t, m, out);  // ReLU pass
  }
  return t;
}

void ConvStack::forwardNaive(const float* input, int m, float* output,
                             Traffic* t) const {
  std::vector<float> bufA(input, input + static_cast<std::size_t>(m) * inputDim());
  std::vector<float> bufB;
  for (int li = 0; li < numLayers(); ++li) {
    const int in = snapshot_.channels[static_cast<std::size_t>(li)];
    const int out = snapshot_.channels[static_cast<std::size_t>(li) + 1];
    const bool lastLayer = li + 1 == numLayers();
    const auto& wConv = weightsChannelMajor_[static_cast<std::size_t>(li)];
    bufB.resize(static_cast<std::size_t>(m) * out);
    for (int px = 0; px < m; ++px)
      convPixelScalar(bufA.data() + static_cast<std::size_t>(px) * in,
                      wConv.data(),
                      bufB.data() + static_cast<std::size_t>(px) * out, in, out);
    chargeMatmul(t, m, in, out);
    biasPassScalar(bufB.data(),
                   snapshot_.biases[static_cast<std::size_t>(li)].data(), m,
                   out);
    chargeElementwisePass(t, m, out);
    if (!lastLayer) {
      reluPassScalar(bufB.data(), bufB.size());
      chargeElementwisePass(t, m, out);
    }
    bufA.swap(bufB);
  }
  std::memcpy(output, bufA.data(),
              static_cast<std::size_t>(m) * outputDim() * sizeof(float));
}

void ConvStack::forwardMatmul(const float* input, int m, float* output,
                              Traffic* t) const {
  std::vector<float> bufA(input, input + static_cast<std::size_t>(m) * inputDim());
  std::vector<float> bufB;
  for (int li = 0; li < numLayers(); ++li) {
    const int in = snapshot_.channels[static_cast<std::size_t>(li)];
    const int out = snapshot_.channels[static_cast<std::size_t>(li) + 1];
    const bool lastLayer = li + 1 == numLayers();
    const auto& w = snapshot_.weights[static_cast<std::size_t>(li)];
    bufB.resize(static_cast<std::size_t>(m) * out);
    for (int px = 0; px < m; ++px)
      matmulPixelScalar(bufA.data() + static_cast<std::size_t>(px) * in,
                        w.data(),
                        bufB.data() + static_cast<std::size_t>(px) * out, in,
                        out);
    chargeMatmul(t, m, in, out);
    biasPassScalar(bufB.data(),
                   snapshot_.biases[static_cast<std::size_t>(li)].data(), m,
                   out);
    chargeElementwisePass(t, m, out);
    if (!lastLayer) {
      reluPassScalar(bufB.data(), bufB.size());
      chargeElementwisePass(t, m, out);
    }
    bufA.swap(bufB);
  }
  std::memcpy(output, bufA.data(),
              static_cast<std::size_t>(m) * outputDim() * sizeof(float));
}

void ConvStack::forwardSimd(const float* input, int m, float* output,
                            Traffic* t) const {
  std::vector<float> bufA(input, input + static_cast<std::size_t>(m) * inputDim());
  std::vector<float> bufB;
  for (int li = 0; li < numLayers(); ++li) {
    const int in = snapshot_.channels[static_cast<std::size_t>(li)];
    const int out = snapshot_.channels[static_cast<std::size_t>(li) + 1];
    const bool lastLayer = li + 1 == numLayers();
    const auto& wConv = weightsChannelMajor_[static_cast<std::size_t>(li)];
    bufB.resize(static_cast<std::size_t>(m) * out);
    for (int px = 0; px < m; ++px)
      matmulPixelSimd(bufA.data() + static_cast<std::size_t>(px) * in,
                      wConv.data(),
                      bufB.data() + static_cast<std::size_t>(px) * out, in, out);
    chargeMatmul(t, m, in, out);
    biasPassSimd(bufB.data(),
                 snapshot_.biases[static_cast<std::size_t>(li)].data(), m, out);
    chargeElementwisePass(t, m, out);
    if (!lastLayer) {
      reluPassSimd(bufB.data(), bufB.size());
      chargeElementwisePass(t, m, out);
    }
    bufA.swap(bufB);
  }
  std::memcpy(output, bufA.data(),
              static_cast<std::size_t>(m) * outputDim() * sizeof(float));
}

void ConvStack::forwardFused(const float* input, int m, float* output,
                             Traffic* t) const {
  // FusedConv2D: matmul + bias + ReLU in one pass; intermediate
  // activations still round-trip main memory between layers.
  std::vector<float> bufA(input, input + static_cast<std::size_t>(m) * inputDim());
  std::vector<float> bufB;
  for (int li = 0; li < numLayers(); ++li) {
    const int in = snapshot_.channels[static_cast<std::size_t>(li)];
    const int out = snapshot_.channels[static_cast<std::size_t>(li) + 1];
    const bool lastLayer = li + 1 == numLayers();
    const auto& wConv = weightsChannelMajor_[static_cast<std::size_t>(li)];
    const auto& b = snapshot_.biases[static_cast<std::size_t>(li)];
    bufB.resize(static_cast<std::size_t>(m) * out);
    detail::fusedConvTile(bufA.data(), wConv.data(), b.data(), bufB.data(), m,
                          in, out, !lastLayer);
    if (t) {
      chargeMatmul(t, m, in, out);
      t->flops += static_cast<std::uint64_t>(m) * out * (lastLayer ? 1 : 2);
    }
    bufA.swap(bufB);
  }
  std::memcpy(output, bufA.data(),
              static_cast<std::size_t>(m) * outputDim() * sizeof(float));
}

}  // namespace tkmc
