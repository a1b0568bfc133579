#include "nnp/conv_stack.hpp"

#include <cstring>

#include "common/error.hpp"
#include "nnp/dense_tile.hpp"

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

void chargeMatmul(Traffic& t, int m, int in, int out) {
  t.mainReadBytes += static_cast<std::uint64_t>(m) * in * sizeof(float);
  t.mainReadBytes += static_cast<std::uint64_t>(in) * out * sizeof(float);
  t.mainWriteBytes += static_cast<std::uint64_t>(m) * out * sizeof(float);
  t.flops += 2ULL * m * in * out;
}

void chargeElementwisePass(Traffic& t, int m, int out) {
  t.mainReadBytes += static_cast<std::uint64_t>(m) * out * sizeof(float);
  t.mainWriteBytes += static_cast<std::uint64_t>(m) * out * sizeof(float);
  t.flops += static_cast<std::uint64_t>(m) * out;
}

}  // namespace

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
  // Every rung runs layer by layer, and its activations round-trip main
  // memory between layers. The unfused rungs make separate bias and ReLU
  // passes; the fused rung does both in registers.
  const bool fused = mode == Mode::kFusedLayer;
  const bool simd = mode == Mode::kMatmulSimd;
  std::vector<float> bufA(input,
                          input + static_cast<std::size_t>(m) * inputDim());
  std::vector<float> bufB;
  for (int li = 0; li < numLayers(); ++li) {
    const std::size_t l = static_cast<std::size_t>(li);
    const int in = snapshot_.channels[l];
    const int out = snapshot_.channels[l + 1];
    const bool lastLayer = li + 1 == numLayers();
    const float* wConv = weightsChannelMajor_[l].data();
    const float* b = snapshot_.biases[l].data();
    bufB.resize(static_cast<std::size_t>(m) * out);
    if (traffic) *traffic += layerTraffic(li, m, fused);
    if (fused) {
      detail::denseTile(bufA.data(), wConv, b, bufB.data(), m, in, out,
                        !lastLayer);
    } else {
      for (int px = 0; px < m; ++px) {
        const float* x = bufA.data() + static_cast<std::size_t>(px) * in;
        float* y = bufB.data() + static_cast<std::size_t>(px) * out;
        if (mode == Mode::kNaiveConv)
          convPixelScalar(x, wConv, y, in, out);
        else if (mode == Mode::kMatmul)
          matmulPixelScalar(x, snapshot_.weights[l].data(), y, in, out);
        else
          matmulPixelSimd(x, wConv, y, in, out);
      }
      (simd ? biasPassSimd : biasPassScalar)(bufB.data(), b, m, out);
      if (!lastLayer)
        (simd ? reluPassSimd : reluPassScalar)(bufB.data(), bufB.size());
    }
    bufA.swap(bufB);
  }
  std::memcpy(output, bufA.data(),
              static_cast<std::size_t>(m) * outputDim() * sizeof(float));
}

Traffic ConvStack::layerTraffic(int layer, int m, bool fused) const {
  const int in = snapshot_.channels[static_cast<std::size_t>(layer)];
  const int out = snapshot_.channels[static_cast<std::size_t>(layer) + 1];
  const bool lastLayer = layer + 1 == numLayers();
  Traffic t;
  chargeMatmul(t, m, in, out);
  if (fused) {
    // Bias and ReLU happen in registers; only their FLOPs count.
    t.flops += static_cast<std::uint64_t>(m) * out * (lastLayer ? 1 : 2);
  } else {
    chargeElementwisePass(t, m, out);                  // bias pass
    if (!lastLayer) chargeElementwisePass(t, m, out);  // ReLU pass
  }
  return t;
}

}  // namespace tkmc
