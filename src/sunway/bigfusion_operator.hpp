#pragma once

#include <vector>

#include "nnp/network.hpp"
#include "sunway/cpe_grid.hpp"
#include "sunway/traffic.hpp"

namespace tkmc {

/// Big-fusion operator (paper Sec. 3.5, Algorithm 1) on the simulated
/// CPE cluster.
///
/// The entire conv stack executes as one kernel: each CPE tiles the
/// activation matrix into m_block rows, DMAs a tile in, pushes it through
/// every (matmul + bias + ReLU) layer while the activations stay resident
/// in LDM, and DMAs only the final layer's output back. Model parameters
/// are distributed across CPE columns (column j owns layer j) and shared
/// along rows via RMA, so steady-state main-memory traffic is exactly one
/// input read plus one output write.
///
/// Each layer of a resident tile runs the float detail::denseTile, the
/// register-blocked kernel ConvStack::Mode::kFusedLayer also uses, so the
/// numerics match it bit-for-bit; the two rungs differ only in the
/// main-memory round trips between layers. Register blocking happens
/// below the model: DMA, RMA and flop counts are charged per tile and
/// layer, whatever the host kernel's loop order.
class BigFusionOperator {
 public:
  /// `mBlock` is the tile height per CPE per pass. The constructor
  /// verifies the working set fits the LDM and that the layer count does
  /// not exceed the mesh width (the paper's 8-layer limit).
  BigFusionOperator(const Network::Snapshot& snapshot, CpeGrid& grid,
                    int mBlock = 32);

  int inputDim() const { return channels_.front(); }
  int outputDim() const { return channels_.back(); }
  int numLayers() const { return static_cast<int>(channels_.size()) - 1; }

  /// Loads the distributed model into CPE column LDM images. Counted
  /// separately from forward() traffic because the model stays resident
  /// across KMC steps. Returns the one-time load traffic.
  Traffic loadModel();

  /// Forward pass: input [m][inputDim] -> output [m][outputDim].
  /// `m` may span many vacancy systems — the batched pipeline passes the
  /// concatenated feature matrix of a whole dirty set, so tileCount(m)
  /// grows with the batch and round-robin dealing keeps every CPE column
  /// busy instead of idling most of the mesh on a 9-state dispatch.
  /// Results are row-independent: forward over a concatenation is
  /// bit-identical to per-system forwards. Traffic accumulates on the
  /// grid counters (collect with grid.collectTraffic()).
  void forward(const float* input, int m, float* output) const;

  /// Row tiles a forward over m rows deals to the mesh (ceil(m/mBlock)).
  int tileCount(int m) const { return (m + mBlock_ - 1) / mBlock_; }

 private:
  struct LayerImage {
    // Channel-major [in][out] weights plus biases, as resident in the
    // owning column's LDM.
    std::vector<float> weightsChannelMajor;
    std::vector<float> biases;
  };

  CpeGrid& grid_;
  std::vector<int> channels_;
  int mBlock_;
  std::vector<LayerImage> layers_;
  bool modelLoaded_ = false;
};

}  // namespace tkmc
