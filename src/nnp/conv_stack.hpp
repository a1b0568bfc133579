#pragma once

#include <cstdint>
#include <vector>

#include "nnp/network.hpp"
#include "sunway/traffic.hpp"

namespace tkmc {

/// Single-precision evaluation of the NNP conv stack at the successive
/// optimization rungs of Fig. 10.
///
/// All modes map an input activation matrix [m][c0] (m = atoms x states,
/// the flattened N*H*W of the 1x1 convolution) to [m][cLast] and are
/// numerically equivalent up to float summation order:
///
///   kNaiveConv  — framework-style Conv2D: per-pixel loops with
///                 channel-major weight access, then separate bias and
///                 ReLU passes over main-memory buffers (3 passes/layer).
///   kMatmul     — convolution rewritten as a matrix multiplication with
///                 contiguous weight rows; bias/ReLU still separate passes.
///   kMatmulSimd — vectorizable matmul: output-channel inner loop over
///                 restrict pointers (maps to SIMD on the CPE vector
///                 units); bias/ReLU still separate passes.
///   kFusedLayer — matmul + bias + ReLU fused into one pass per layer
///                 (the TensorFlow FusedConv2D / SWDNN analogue), run by
///                 the register-blocked float detail::denseTile.
///
/// The fifth rung, the big-fusion operator, keeps activations resident in
/// CPE scratchpads across *all* layers and lives in
/// sunway/bigfusion_operator.hpp.
///
/// Traffic counters follow the paper's accounting: every pass over a
/// main-memory buffer charges its bytes; FLOPs are 2*m*in*out per matmul
/// plus m*out for bias and ReLU passes.
class ConvStack {
 public:
  enum class Mode { kNaiveConv, kMatmul, kMatmulSimd, kFusedLayer };

  explicit ConvStack(Network::Snapshot snapshot);

  int inputDim() const { return snapshot_.channels.front(); }
  int outputDim() const { return snapshot_.channels.back(); }
  int numLayers() const { return static_cast<int>(snapshot_.weights.size()); }
  const Network::Snapshot& snapshot() const { return snapshot_; }

  /// Evaluates the stack; `output` must hold m * outputDim() floats.
  /// When `traffic` is non-null the pass's memory/flop accounting is
  /// accumulated into it.
  void forward(Mode mode, const float* input, int m, float* output,
               Traffic* traffic = nullptr) const;

  /// Per-layer traffic of the *unfused* operator (three passes), used by
  /// the Fig. 9 table. Layer index in [0, numLayers()).
  Traffic layerTraffic(int layer, int m, bool fused) const;

  /// Weights of one layer, row-major [out][in].
  const std::vector<float>& weights(int layer) const {
    return snapshot_.weights[static_cast<std::size_t>(layer)];
  }
  const std::vector<float>& biases(int layer) const {
    return snapshot_.biases[static_cast<std::size_t>(layer)];
  }

 private:
  Network::Snapshot snapshot_;
  // Channel-major weight copies [in][out] for the naive-conv access
  // pattern and the SIMD kernels.
  std::vector<std::vector<float>> weightsChannelMajor_;
};

}  // namespace tkmc
