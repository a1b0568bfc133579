#include "nnp/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "nnp/dense_tile.hpp"

namespace tkmc {

Network::Network(std::vector<int> channels) : channels_(std::move(channels)) {
  require(channels_.size() >= 2, "network needs at least one layer");
  for (int c : channels_) require(c > 0, "channel widths must be positive");
  layers_.resize(channels_.size() - 1);
  for (std::size_t i = 0; i + 1 < channels_.size(); ++i) {
    Layer& l = layers_[i];
    l.in = channels_[i];
    l.out = channels_[i + 1];
    l.weights.assign(static_cast<std::size_t>(l.in) * l.out, 0.0);
    l.bias.assign(static_cast<std::size_t>(l.out), 0.0);
  }
  inputShift_.assign(static_cast<std::size_t>(inputDim()), 0.0);
  inputScale_.assign(static_cast<std::size_t>(inputDim()), 1.0);
}

void Network::initHe(Rng& rng) {
  for (Layer& l : layers_) {
    const double stddev = std::sqrt(2.0 / l.in);
    for (double& w : l.weights) {
      // Box-Muller from two uniforms.
      const double u1 = rng.uniformOpenLeft();
      const double u2 = rng.uniform();
      w = stddev * std::sqrt(-2.0 * std::log(u1)) *
          std::cos(2.0 * 3.14159265358979323846 * u2);
    }
    std::fill(l.bias.begin(), l.bias.end(), 0.0);
  }
}

void Network::setInputTransform(std::vector<double> shift,
                                std::vector<double> scale) {
  require(static_cast<int>(shift.size()) == inputDim() &&
              static_cast<int>(scale.size()) == inputDim(),
          "input transform must match the input dimension");
  inputShift_ = std::move(shift);
  inputScale_ = std::move(scale);
}

int Network::maxWidth() const {
  return *std::max_element(channels_.begin(), channels_.end());
}

double Network::forwardOne(const double* features, double* scratch) const {
  const int width = maxWidth();
  double* cur = scratch;
  double* nxt = scratch + width;
  for (int c = 0; c < inputDim(); ++c)
    cur[c] = (features[c] - inputShift_[static_cast<std::size_t>(c)]) *
             inputScale_[static_cast<std::size_t>(c)];
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    const bool last = li + 1 == layers_.size();
    for (int o = 0; o < l.out; ++o) {
      const double* w = l.weights.data() + static_cast<std::size_t>(o) * l.in;
      double acc = l.bias[static_cast<std::size_t>(o)];
      for (int c = 0; c < l.in; ++c) acc += w[c] * cur[c];
      nxt[o] = last ? acc : std::max(acc, 0.0);
    }
    std::swap(cur, nxt);
  }
  return cur[0];
}

double Network::atomEnergy(std::span<const double> features) const {
  require(static_cast<int>(features.size()) == inputDim(),
          "feature vector has wrong dimension");
  std::vector<double> scratch(static_cast<std::size_t>(2 * maxWidth()));
  return forwardOne(features.data(), scratch.data());
}

void Network::channelMajorWeights(double* out) const {
  for (const Layer& l : layers_) {
    for (int o = 0; o < l.out; ++o)
      for (int c = 0; c < l.in; ++c)
        out[static_cast<std::size_t>(c) * l.out + o] =
            l.weights[static_cast<std::size_t>(o) * l.in + c];
    out += l.weights.size();
  }
}

void Network::forwardBatch(const double* features, int nAtoms,
                           double* atomEnergies) const {
  // Per-thread scratch, allocated once per thread: channel-major copies
  // of every layer's weights, rebuilt on each call so an edit through
  // layer() or the Trainer can never leave a stale copy, then two
  // ping-pong activation tiles of kTileRows rows.
  constexpr int kTileRows = 64;
  thread_local std::vector<double> scratch;
  std::size_t weightCount = 0;
  for (const Layer& l : layers_) weightCount += l.weights.size();
  const std::size_t tileSize = static_cast<std::size_t>(kTileRows) * maxWidth();
  if (scratch.size() < weightCount + 2 * tileSize)
    scratch.resize(weightCount + 2 * tileSize);

  channelMajorWeights(scratch.data());

  const int in = inputDim();
  const int outLast = channels_.back();
  for (int row0 = 0; row0 < nAtoms; row0 += kTileRows) {
    const int rows = std::min(kTileRows, nAtoms - row0);
    double* cur = scratch.data() + weightCount;
    double* nxt = cur + tileSize;
    const double* x = features + static_cast<std::size_t>(row0) * in;
    for (int r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < inputShift_.size(); ++c) {
        const std::size_t i = static_cast<std::size_t>(r) * in + c;
        cur[i] = (x[i] - inputShift_[c]) * inputScale_[c];
      }
    const double* w = scratch.data();
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const Layer& l = layers_[li];
      detail::denseTile(cur, w, l.bias.data(), nxt, rows, l.in, l.out,
                        li + 1 < layers_.size());
      w += l.weights.size();
      std::swap(cur, nxt);
    }
    for (int r = 0; r < rows; ++r)
      atomEnergies[row0 + r] = cur[static_cast<std::size_t>(r) * outLast];
  }
}

double Network::stateEnergy(const double* features, int nAtoms) const {
  std::vector<double> scratch(static_cast<std::size_t>(2 * maxWidth()));
  double total = 0.0;
  for (int i = 0; i < nAtoms; ++i)
    total += forwardOne(features + static_cast<std::size_t>(i) * inputDim(),
                        scratch.data());
  return total;
}

void Network::inputGradient(std::span<const double> features,
                            std::span<double> dFeatures) const {
  require(static_cast<int>(features.size()) == inputDim() &&
              dFeatures.size() == features.size(),
          "gradient buffers must match the input dimension");
  // Forward pass retaining activations.
  std::vector<std::vector<double>> acts(layers_.size() + 1);
  acts[0].resize(static_cast<std::size_t>(inputDim()));
  for (int c = 0; c < inputDim(); ++c)
    acts[0][static_cast<std::size_t>(c)] =
        (features[static_cast<std::size_t>(c)] - inputShift_[static_cast<std::size_t>(c)]) *
        inputScale_[static_cast<std::size_t>(c)];
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    const bool last = li + 1 == layers_.size();
    acts[li + 1].resize(static_cast<std::size_t>(l.out));
    for (int o = 0; o < l.out; ++o) {
      const double* w = l.weights.data() + static_cast<std::size_t>(o) * l.in;
      double acc = l.bias[static_cast<std::size_t>(o)];
      for (int c = 0; c < l.in; ++c) acc += w[c] * acts[li][static_cast<std::size_t>(c)];
      acts[li + 1][static_cast<std::size_t>(o)] = last ? acc : std::max(acc, 0.0);
    }
  }
  // Backward pass: d(output scalar)/d(activations).
  std::vector<double> grad{1.0};
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const Layer& l = layers_[li];
    const bool last = li + 1 == layers_.size();
    std::vector<double> prev(static_cast<std::size_t>(l.in), 0.0);
    for (int o = 0; o < l.out; ++o) {
      double g = grad[static_cast<std::size_t>(o)];
      if (!last && acts[li + 1][static_cast<std::size_t>(o)] <= 0.0) g = 0.0;
      const double* w = l.weights.data() + static_cast<std::size_t>(o) * l.in;
      for (int c = 0; c < l.in; ++c) prev[static_cast<std::size_t>(c)] += g * w[c];
    }
    grad = std::move(prev);
  }
  for (int c = 0; c < inputDim(); ++c)
    dFeatures[static_cast<std::size_t>(c)] =
        grad[static_cast<std::size_t>(c)] * inputScale_[static_cast<std::size_t>(c)];
}

Network::Snapshot Network::foldedSnapshot() const {
  Snapshot snap;
  snap.channels = channels_;
  snap.weights.resize(layers_.size());
  snap.biases.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    auto& w = snap.weights[li];
    auto& b = snap.biases[li];
    w.resize(l.weights.size());
    b.resize(l.bias.size());
    if (li == 0) {
      // y = W((x - shift) * scale) + b  ==  (W * diag(scale)) x
      //     + (b - W (shift .* scale)).
      for (int o = 0; o < l.out; ++o) {
        double shiftDot = 0.0;
        for (int c = 0; c < l.in; ++c) {
          const double wc = l.weights[static_cast<std::size_t>(o) * l.in + c];
          const double sc = inputScale_[static_cast<std::size_t>(c)];
          w[static_cast<std::size_t>(o) * l.in + c] = static_cast<float>(wc * sc);
          shiftDot += wc * sc * inputShift_[static_cast<std::size_t>(c)];
        }
        b[static_cast<std::size_t>(o)] =
            static_cast<float>(l.bias[static_cast<std::size_t>(o)] - shiftDot);
      }
    } else {
      for (std::size_t i = 0; i < l.weights.size(); ++i)
        w[i] = static_cast<float>(l.weights[i]);
      for (std::size_t i = 0; i < l.bias.size(); ++i)
        b[i] = static_cast<float>(l.bias[i]);
    }
  }
  return snap;
}

}  // namespace tkmc
