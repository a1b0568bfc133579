#pragma once

// Scalar oracle for the dense tile kernels, kept independent of
// src/nnp/dense_tile.cpp so tests of ConvStack, BigFusionOperator and
// Network (which share one kernel) still compare against something else.
//
// Summation order is the contract: every output starts from its bias and
// adds x[c] * w[c][o] with c ascending, in the element precision. Float
// reductions are not reassociated without -ffast-math, so this loop is
// the exact reference for EXPECT_EQ comparisons.

#include <cstddef>
#include <vector>

#include "nnp/network.hpp"

namespace tkmc::testref {

/// One fused layer: x [rows][in] -> y [rows][out] with channel-major
/// weights wcm [in][out], bias b [out], optional ReLU. T is float (the
/// conv stack) or double (the Network forward).
template <typename T>
inline void convLayer(const T* x, const T* wcm, const T* b, T* y, int rows,
                      int in, int out, bool relu) {
  for (int r = 0; r < rows; ++r)
    for (int o = 0; o < out; ++o) {
      T acc = b[o];
      for (int c = 0; c < in; ++c)
        acc += x[static_cast<std::size_t>(r) * in + c] *
               wcm[static_cast<std::size_t>(c) * out + o];
      if (relu && acc < T(0)) acc = T(0);
      y[static_cast<std::size_t>(r) * out + o] = acc;
    }
}

/// Whole stack of a folded snapshot (row-major [out][in] weights), ReLU
/// on every layer but the last: input [m][c0] -> [m][cLast].
inline std::vector<float> stack(const Network::Snapshot& snap,
                                const std::vector<float>& input, int m) {
  std::vector<float> cur = input;
  const std::size_t numLayers = snap.weights.size();
  for (std::size_t li = 0; li < numLayers; ++li) {
    const int in = snap.channels[li];
    const int out = snap.channels[li + 1];
    std::vector<float> wcm(static_cast<std::size_t>(in) * out);
    for (int o = 0; o < out; ++o)
      for (int c = 0; c < in; ++c)
        wcm[static_cast<std::size_t>(c) * out + o] =
            snap.weights[li][static_cast<std::size_t>(o) * in + c];
    std::vector<float> next(static_cast<std::size_t>(m) * out);
    convLayer(cur.data(), wcm.data(), snap.biases[li].data(), next.data(), m,
              in, out, li + 1 < numLayers);
    cur.swap(next);
  }
  return cur;
}

}  // namespace tkmc::testref
