#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace tkmc {

/// Atomistic neural network potential (TensorAlloy style, paper Sec. 3.5).
///
/// A stack of 1x1 convolutions over atoms — equivalently a per-atom MLP —
/// mapping each atom's descriptor vector to an atomic energy; the state
/// energy is the sum over atoms. The paper's production channels are
/// (64, 128, 128, 128, 64, 1) with ReLU activations and a linear output.
///
/// Canonical weights are double precision (training, KMC accumulation);
/// the Sunway-style operators consume a single-precision snapshot with
/// the input standardization folded into layer 0 (see foldedSnapshot()).
class Network {
 public:
  struct Layer {
    int in = 0;
    int out = 0;
    std::vector<double> weights;  // row-major [out][in]
    std::vector<double> bias;     // [out]
  };

  /// `channels` lists layer widths including input and output, e.g.
  /// {64, 128, 128, 128, 64, 1}.
  explicit Network(std::vector<int> channels);

  int inputDim() const { return channels_.front(); }
  int numLayers() const { return static_cast<int>(layers_.size()); }
  const std::vector<int>& channels() const { return channels_; }
  const Layer& layer(int i) const { return layers_[static_cast<std::size_t>(i)]; }
  Layer& layer(int i) { return layers_[static_cast<std::size_t>(i)]; }

  /// He-normal weight initialization (appropriate for ReLU stacks).
  void initHe(Rng& rng);

  /// Sets the input standardization: forward() evaluates the MLP on
  /// (x - shift) * scale componentwise.
  void setInputTransform(std::vector<double> shift, std::vector<double> scale);
  const std::vector<double>& inputShift() const { return inputShift_; }
  const std::vector<double>& inputScale() const { return inputScale_; }

  /// Atomic energy of a single feature vector.
  double atomEnergy(std::span<const double> features) const;

  /// Batched forward: `features` is [nAtoms][inputDim] row-major;
  /// writes nAtoms atomic energies, each bit-equal to atomEnergy() on
  /// its row. Runs tiles of rows through detail::denseTile over weights
  /// transposed per call; scratch is thread-local, so concurrent calls
  /// are safe and a thread allocates only on its first call.
  void forwardBatch(const double* features, int nAtoms,
                    double* atomEnergies) const;

  /// Writes every layer's weights, in layer order, transposed to
  /// channel-major [in][out] (the layout detail::denseTile reads) into
  /// `out`, which holds the total weight count.
  void channelMajorWeights(double* out) const;

  /// Sum of atomic energies over a batch (the AKMC state energy).
  double stateEnergy(const double* features, int nAtoms) const;

  /// Gradient of the atomic energy with respect to the *raw* input
  /// features (chain rule through the input transform). Used for forces.
  void inputGradient(std::span<const double> features,
                     std::span<double> dFeatures) const;

  /// Single-precision snapshot with the input transform folded into the
  /// first layer, so downstream operators see a pure conv stack.
  struct Snapshot {
    std::vector<int> channels;
    // Per layer, row-major [out][in] weights and [out] biases.
    std::vector<std::vector<float>> weights;
    std::vector<std::vector<float>> biases;
  };
  Snapshot foldedSnapshot() const;

  /// Scratch sized for one forward pass (two ping-pong activations).
  int maxWidth() const;

 private:
  // Forward for one atom using caller scratch (size >= 2 * maxWidth()).
  double forwardOne(const double* features, double* scratch) const;

  std::vector<int> channels_;
  std::vector<Layer> layers_;
  std::vector<double> inputShift_;
  std::vector<double> inputScale_;
};

}  // namespace tkmc
