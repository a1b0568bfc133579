#include "nnp/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "nnp/dense_tile.hpp"

namespace tkmc {

double SpeciesBaseline::evaluate(const Structure& s) const {
  double total = 0.0;
  for (Species sp : s.species)
    total += e0[static_cast<std::size_t>(static_cast<int>(sp))];
  return total;
}

SpeciesBaseline SpeciesBaseline::fit(const std::vector<LabeledStructure>& data) {
  // Normal equations for E ~ nFe * e0_Fe + nCu * e0_Cu (2x2 system).
  double a00 = 0, a01 = 0, a11 = 0, b0 = 0, b1 = 0;
  for (const LabeledStructure& ls : data) {
    double counts[kNumElements] = {0, 0};
    for (Species sp : ls.structure.species)
      counts[static_cast<int>(sp)] += 1.0;
    a00 += counts[0] * counts[0];
    a01 += counts[0] * counts[1];
    a11 += counts[1] * counts[1];
    b0 += counts[0] * ls.energy;
    b1 += counts[1] * ls.energy;
  }
  SpeciesBaseline baseline;
  const double det = a00 * a11 - a01 * a01;
  if (std::abs(det) > 1e-9) {
    baseline.e0[0] = (b0 * a11 - b1 * a01) / det;
    baseline.e0[1] = (a00 * b1 - a01 * b0) / det;
  } else if (a00 > 0) {
    // Single-species data set: plain average per atom.
    baseline.e0[0] = b0 / a00;
    baseline.e0[1] = baseline.e0[0];
  }
  return baseline;
}

TrainSample makeSample(const Descriptor& descriptor, const LabeledStructure& ls,
                       const SpeciesBaseline* baseline) {
  TrainSample sample;
  sample.features = descriptor.compute(ls.structure);
  sample.nAtoms = static_cast<int>(ls.structure.size());
  sample.baseline = baseline ? baseline->evaluate(ls.structure) : 0.0;
  sample.energy = ls.energy - sample.baseline;
  return sample;
}

namespace {

void requireSamples(const std::vector<TrainSample>& samples, int inputDim) {
  require(!samples.empty(), "cannot use an empty sample set");
  for (const TrainSample& s : samples)
    require(s.nAtoms > 0 && s.features.size() ==
                                static_cast<std::size_t>(s.nAtoms) * inputDim,
            "a sample needs nAtoms > 0 and nAtoms * inputDim features");
}

}  // namespace

Trainer::Trainer(Network& network, Config config)
    : network_(network), config_(config), rng_(config.seed),
      lr_(config.learningRate) {
  require(network.channels().back() == 1,
          "the trained network must have a single output");
  weightState_.resize(static_cast<std::size_t>(network.numLayers()));
  biasState_.resize(static_cast<std::size_t>(network.numLayers()));
  weightGrads_.resize(static_cast<std::size_t>(network.numLayers()));
  biasGrads_.resize(static_cast<std::size_t>(network.numLayers()));
  std::size_t weightCount = 0;
  for (int li = 0; li < network.numLayers(); ++li) {
    const auto& l = network.layer(li);
    weightState_[static_cast<std::size_t>(li)].m.assign(l.weights.size(), 0.0);
    weightState_[static_cast<std::size_t>(li)].v.assign(l.weights.size(), 0.0);
    biasState_[static_cast<std::size_t>(li)].m.assign(l.bias.size(), 0.0);
    biasState_[static_cast<std::size_t>(li)].v.assign(l.bias.size(), 0.0);
    weightGrads_[static_cast<std::size_t>(li)].assign(l.weights.size(), 0.0);
    biasGrads_[static_cast<std::size_t>(li)].assign(l.bias.size(), 0.0);
    weightCount += l.weights.size();
  }
  channelMajor_.resize(weightCount);
  zeros_.assign(static_cast<std::size_t>(network.maxWidth()), 0.0);
}

void Trainer::fitStandardization(const std::vector<TrainSample>& samples) {
  const int d = network_.inputDim();
  requireSamples(samples, d);
  std::vector<double> mean(static_cast<std::size_t>(d), 0.0);
  std::vector<double> var(static_cast<std::size_t>(d), 0.0);
  std::size_t count = 0;
  for (const TrainSample& s : samples) {
    for (int a = 0; a < s.nAtoms; ++a) {
      const double* f = s.features.data() + static_cast<std::size_t>(a) * d;
      for (int c = 0; c < d; ++c) mean[static_cast<std::size_t>(c)] += f[c];
    }
    count += static_cast<std::size_t>(s.nAtoms);
  }
  for (double& m : mean) m /= static_cast<double>(count);
  for (const TrainSample& s : samples)
    for (int a = 0; a < s.nAtoms; ++a) {
      const double* f = s.features.data() + static_cast<std::size_t>(a) * d;
      for (int c = 0; c < d; ++c) {
        const double dv = f[c] - mean[static_cast<std::size_t>(c)];
        var[static_cast<std::size_t>(c)] += dv * dv;
      }
    }
  std::vector<double> scale(static_cast<std::size_t>(d));
  for (int c = 0; c < d; ++c) {
    const double sd = std::sqrt(var[static_cast<std::size_t>(c)] /
                                static_cast<double>(count));
    scale[static_cast<std::size_t>(c)] = sd > 1e-10 ? 1.0 / sd : 1.0;
  }
  network_.setInputTransform(std::move(mean), std::move(scale));
}

// Each product below keeps the per-output summation order of the
// per-atom loop it replaced, so the weights are bit-identical to it:
// forward sums over input channels, the data gradient over outputs and
// the weight and bias gradients over atoms, each ascending and starting
// from +0 (or the bias). Masked ReLU entries are added as 0 instead of
// skipped; a sum that starts at +0 never becomes -0, so adding +-0 leaves
// it unchanged.
void Trainer::step(const TrainSample& sample, double& lossOut) {
  const int n = sample.nAtoms;
  const int numLayers = network_.numLayers();
  const auto rows = static_cast<std::size_t>(n);

  std::size_t actCount = 0;
  for (int width : network_.channels()) actCount += rows * width;
  activations_.resize(actCount);
  const std::size_t gradCount = rows * network_.maxWidth();
  grad_.resize(gradCount);
  gradT_.resize(gradCount);
  prevGrad_.resize(gradCount);

  network_.channelMajorWeights(channelMajor_.data());

  // Forward: standardize, then one tile product per layer, keeping every
  // layer's activations for the backward pass.
  const auto& shift = network_.inputShift();
  const auto& scale = network_.inputScale();
  for (std::size_t a = 0; a < rows; ++a)
    for (std::size_t c = 0; c < shift.size(); ++c) {
      const std::size_t i = a * shift.size() + c;
      activations_[i] = (sample.features[i] - shift[c]) * scale[c];
    }
  double* x = activations_.data();
  const double* w = channelMajor_.data();
  for (int li = 0; li < numLayers; ++li) {
    const auto& l = network_.layer(li);
    double* y = x + rows * l.in;
    detail::denseTile(x, w, l.bias.data(), y, n, l.in, l.out,
                      li + 1 < numLayers);
    w += l.weights.size();
    x = y;
  }
  double predicted = 0.0;
  for (int a = 0; a < n; ++a) predicted += x[a];

  // Loss: squared per-atom energy error.
  const double perAtomError = (predicted - sample.energy) / n;
  lossOut = perAtomError * perAtomError;
  // dL/dE_total = 2 * perAtomError / nAtoms; same for every atomic energy.
  const double dLdE = 2.0 * perAtomError / n;

  // Backward: grad_ holds dL/d(output) of layer li as [n][out].
  std::fill(grad_.begin(), grad_.begin() + n, dLdE);
  double* output = x;
  for (int li = numLayers - 1; li >= 0; --li) {
    const auto& l = network_.layer(li);
    double* input = output - rows * l.in;
    auto& bg = biasGrads_[static_cast<std::size_t>(li)];
    std::fill(bg.begin(), bg.end(), 0.0);
    for (int a = 0; a < n; ++a)
      for (int o = 0; o < l.out; ++o) {
        const std::size_t i = static_cast<std::size_t>(a) * l.out + o;
        if (li + 1 < numLayers && output[i] <= 0.0) grad_[i] = 0.0;
        bg[static_cast<std::size_t>(o)] += grad_[i];
        gradT_[static_cast<std::size_t>(o) * rows + a] = grad_[i];
      }
    // wg[o][c] = 0 + sum_a g[a][o] * x[a][c]: x is channel-major with
    // the atoms as its channels.
    detail::denseTile(gradT_.data(), input, zeros_.data(),
                      weightGrads_[static_cast<std::size_t>(li)].data(), l.out,
                      n, l.in, false);
    // prev[a][c] = 0 + sum_o g[a][o] * w[o][c]: row-major [out][in]
    // weights are channel-major for this product. Layer 0's input
    // gradient is never read.
    if (li > 0) {
      detail::denseTile(grad_.data(), l.weights.data(), zeros_.data(),
                        prevGrad_.data(), n, l.out, l.in, false);
      std::swap(grad_, prevGrad_);
    }
    output = input;
  }

  // Adam update.
  ++steps_;
  constexpr double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  const double correction1 = 1.0 - std::pow(beta1, static_cast<double>(steps_));
  const double correction2 = 1.0 - std::pow(beta2, static_cast<double>(steps_));
  for (int li = 0; li < numLayers; ++li) {
    auto& l = network_.layer(li);
    auto& ws = weightState_[static_cast<std::size_t>(li)];
    auto& bs = biasState_[static_cast<std::size_t>(li)];
    const auto& wg = weightGrads_[static_cast<std::size_t>(li)];
    const auto& bg = biasGrads_[static_cast<std::size_t>(li)];
    for (std::size_t i = 0; i < l.weights.size(); ++i) {
      ws.m[i] = beta1 * ws.m[i] + (1 - beta1) * wg[i];
      ws.v[i] = beta2 * ws.v[i] + (1 - beta2) * wg[i] * wg[i];
      l.weights[i] -= lr_ * (ws.m[i] / correction1) /
                      (std::sqrt(ws.v[i] / correction2) + eps);
    }
    for (std::size_t i = 0; i < l.bias.size(); ++i) {
      bs.m[i] = beta1 * bs.m[i] + (1 - beta1) * bg[i];
      bs.v[i] = beta2 * bs.v[i] + (1 - beta2) * bg[i] * bg[i];
      l.bias[i] -= lr_ * (bs.m[i] / correction1) /
                   (std::sqrt(bs.v[i] / correction2) + eps);
    }
  }
}

double Trainer::epoch(const std::vector<TrainSample>& samples) {
  requireSamples(samples, network_.inputDim());
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng_.uniformBelow(i)]);
  double total = 0.0;
  for (std::size_t k : order) {
    double loss = 0.0;
    step(samples[k], loss);
    total += loss;
  }
  return total / static_cast<double>(samples.size());
}

double Trainer::train(const std::vector<TrainSample>& samples) {
  requireSamples(samples, network_.inputDim());
  double last = 0.0;
  for (int e = 0; e < config_.epochs; ++e) {
    last = epoch(samples);
    lr_ *= config_.decay;
  }
  return last;
}

Metrics Trainer::evaluateEnergy(const Network& network,
                                const std::vector<TrainSample>& samples) {
  requireSamples(samples, network.inputDim());
  Metrics m;
  double sumAbs = 0.0, mean = 0.0;
  std::vector<double> refs, preds;
  refs.reserve(samples.size());
  preds.reserve(samples.size());
  for (const TrainSample& s : samples) {
    const double pred = network.stateEnergy(s.features.data(), s.nAtoms);
    // Parity in raw energies: the composition baseline is added back to
    // both sides (it cancels in the MAE but matters for R^2, which the
    // paper reports on absolute energies).
    const double refPerAtom = (s.energy + s.baseline) / s.nAtoms;
    const double predPerAtom = (pred + s.baseline) / s.nAtoms;
    refs.push_back(refPerAtom);
    preds.push_back(predPerAtom);
    sumAbs += std::abs(predPerAtom - refPerAtom);
    mean += refPerAtom;
  }
  mean /= static_cast<double>(samples.size());
  double ssRes = 0.0, ssTot = 0.0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ssRes += (preds[i] - refs[i]) * (preds[i] - refs[i]);
    ssTot += (refs[i] - mean) * (refs[i] - mean);
  }
  m.maePerAtom = sumAbs / static_cast<double>(samples.size());
  m.r2 = ssTot > 0 ? 1.0 - ssRes / ssTot : 0.0;
  return m;
}

Metrics Trainer::evaluateForces(const Network& network,
                                const Descriptor& descriptor,
                                const std::vector<LabeledStructure>& data) {
  Metrics m;
  double sumAbs = 0.0, mean = 0.0;
  std::size_t count = 0;
  std::vector<double> refs, preds;
  for (const LabeledStructure& ls : data) {
    const std::size_t n = ls.structure.size();
    const std::vector<double> features = descriptor.compute(ls.structure);
    std::vector<double> grads(features.size());
    for (std::size_t a = 0; a < n; ++a)
      network.inputGradient(
          {features.data() + a * static_cast<std::size_t>(descriptor.dim()),
           static_cast<std::size_t>(descriptor.dim())},
          {grads.data() + a * static_cast<std::size_t>(descriptor.dim()),
           static_cast<std::size_t>(descriptor.dim())});
    const std::vector<Vec3d> predicted = descriptor.forces(ls.structure, grads);
    for (std::size_t a = 0; a < n; ++a) {
      const double pr[3] = {predicted[a].x, predicted[a].y, predicted[a].z};
      const double rf[3] = {ls.forces[a].x, ls.forces[a].y, ls.forces[a].z};
      for (int c = 0; c < 3; ++c) {
        refs.push_back(rf[c]);
        preds.push_back(pr[c]);
        sumAbs += std::abs(pr[c] - rf[c]);
        mean += rf[c];
        ++count;
      }
    }
  }
  mean /= static_cast<double>(count);
  double ssRes = 0.0, ssTot = 0.0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    ssRes += (preds[i] - refs[i]) * (preds[i] - refs[i]);
    ssTot += (refs[i] - mean) * (refs[i] - mean);
  }
  m.maePerAtom = sumAbs / static_cast<double>(count);
  m.r2 = ssTot > 0 ? 1.0 - ssRes / ssTot : 0.0;
  return m;
}

}  // namespace tkmc
