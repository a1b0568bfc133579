#include "nnp/trainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numeric>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "tabulation/feature_table.hpp"

// Counts every plain operator new in this binary, so a test can check
// that a call allocates nothing.
namespace {
std::atomic<long> gAllocations{0};
}  // namespace

// noinline keeps GCC from pairing an inlined new with free() and
// warning about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tkmc {
namespace {

// Synthetic regression task: energy is a fixed linear functional of the
// per-atom features. A ReLU MLP must drive the loss near zero.
std::vector<TrainSample> linearTask(int dim, int count, Rng& rng) {
  std::vector<double> weights(static_cast<std::size_t>(dim));
  for (double& w : weights) w = rng.uniform() * 2 - 1;
  std::vector<TrainSample> samples;
  for (int i = 0; i < count; ++i) {
    TrainSample s;
    s.nAtoms = 3 + static_cast<int>(rng.uniformBelow(4));
    s.features.resize(static_cast<std::size_t>(s.nAtoms) * dim);
    for (double& f : s.features) f = rng.uniform() * 2;
    s.energy = 0.0;
    for (int a = 0; a < s.nAtoms; ++a)
      for (int c = 0; c < dim; ++c)
        s.energy += weights[static_cast<std::size_t>(c)] *
                    s.features[static_cast<std::size_t>(a) * dim + c];
    samples.push_back(std::move(s));
  }
  return samples;
}

TEST(Trainer, FitStandardizationCentersFeatures) {
  Network net({2, 4, 1});
  Trainer trainer(net, {});
  std::vector<TrainSample> samples(1);
  samples[0].nAtoms = 2;
  samples[0].features = {1.0, 10.0, 3.0, 30.0};
  samples[0].energy = 0.0;
  trainer.fitStandardization(samples);
  EXPECT_DOUBLE_EQ(net.inputShift()[0], 2.0);
  EXPECT_DOUBLE_EQ(net.inputShift()[1], 20.0);
  EXPECT_NEAR(net.inputScale()[0], 1.0, 1e-12);   // std = 1
  EXPECT_NEAR(net.inputScale()[1], 0.1, 1e-12);   // std = 10
}

TEST(Trainer, LossDecreasesOnLinearTask) {
  Rng rng(31);
  const auto samples = linearTask(4, 32, rng);
  Network net({4, 16, 1});
  Rng init(32);
  net.initHe(init);
  Trainer::Config cfg;
  cfg.epochs = 1;
  cfg.learningRate = 1e-2;
  Trainer trainer(net, cfg);
  trainer.fitStandardization(samples);
  const double first = trainer.epoch(samples);
  double last = first;
  for (int e = 0; e < 60; ++e) last = trainer.epoch(samples);
  EXPECT_LT(last, first * 0.05);
}

TEST(Trainer, TrainRunsFullSchedule) {
  Rng rng(41);
  const auto samples = linearTask(3, 16, rng);
  Network net({3, 8, 1});
  Rng init(42);
  net.initHe(init);
  Trainer::Config cfg;
  cfg.epochs = 80;
  cfg.learningRate = 1e-2;
  Trainer trainer(net, cfg);
  trainer.fitStandardization(samples);
  const double finalLoss = trainer.train(samples);
  EXPECT_LT(finalLoss, 0.05);
}

TEST(Trainer, EvaluateEnergyPerfectPredictionHasUnitR2) {
  Network net({2, 1});
  net.layer(0).weights = {1.0, 2.0};
  std::vector<TrainSample> samples;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    TrainSample s;
    s.nAtoms = 2;
    s.features = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    s.energy = 0.0;
    for (int a = 0; a < 2; ++a)
      s.energy += s.features[static_cast<std::size_t>(a) * 2] +
                  2.0 * s.features[static_cast<std::size_t>(a) * 2 + 1];
    samples.push_back(std::move(s));
  }
  const Metrics m = Trainer::evaluateEnergy(net, samples);
  EXPECT_NEAR(m.maePerAtom, 0.0, 1e-12);
  EXPECT_NEAR(m.r2, 1.0, 1e-12);
}

TEST(Trainer, EvaluateEnergyPenalizesConstantPredictor) {
  Network net({2, 1});  // all-zero weights -> predicts 0
  std::vector<TrainSample> samples;
  Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    TrainSample s;
    s.nAtoms = 1;
    s.features = {rng.uniform(), rng.uniform()};
    s.energy = 5.0 + rng.uniform();
    samples.push_back(std::move(s));
  }
  const Metrics m = Trainer::evaluateEnergy(net, samples);
  EXPECT_GT(m.maePerAtom, 4.0);
  EXPECT_LT(m.r2, 0.0);
}

TEST(Trainer, DeterministicGivenSeeds) {
  Rng r1(55), r2(55);
  const auto s1 = linearTask(3, 8, r1);
  const auto s2 = linearTask(3, 8, r2);
  Network n1({3, 8, 1}), n2({3, 8, 1});
  Rng i1(56), i2(56);
  n1.initHe(i1);
  n2.initHe(i2);
  Trainer::Config cfg;
  cfg.epochs = 5;
  Trainer t1(n1, cfg), t2(n2, cfg);
  t1.fitStandardization(s1);
  t2.fitStandardization(s2);
  EXPECT_DOUBLE_EQ(t1.train(s1), t2.train(s2));
  EXPECT_EQ(n1.layer(0).weights, n2.layer(0).weights);
}

TEST(Trainer, RejectsEmptyAndMisSizedSamples) {
  Network net({3, 4, 1});
  Trainer trainer(net, {});
  Rng rng(61);
  const auto good = linearTask(3, 4, rng);

  auto withBad = [&](int nAtoms, std::size_t featureCount) {
    auto samples = good;
    samples[1].nAtoms = nAtoms;
    samples[1].features.assign(featureCount, 0.5);
    samples[1].energy = 0.0;
    return samples;
  };
  // A 0-atom sample made the per-atom error 0/0, a NaN loss; a feature
  // vector shorter (or longer) than nAtoms rows was read past its end
  // (or misread).
  for (const auto& bad : {withBad(0, 0), withBad(4, 11), withBad(2, 7)}) {
    EXPECT_THROW(trainer.fitStandardization(bad), Error);
    EXPECT_THROW(trainer.train(bad), Error);
    EXPECT_THROW(Trainer::evaluateEnergy(net, bad), Error);
  }
}

// FNV-1a over the bit patterns of doubles: any change of any bit, -0 vs
// +0 included, changes the hash.
struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double v) {
    std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i, bits >>= 8) {
      h ^= bits & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(const std::vector<double>& vs) {
    for (double v : vs) add(v);
  }
};

std::uint64_t networkHash(const Network& net) {
  BitHash hash;
  for (int li = 0; li < net.numLayers(); ++li) {
    hash.add(net.layer(li).weights);
    hash.add(net.layer(li).bias);
  }
  return hash.h;
}

// The self-trained potential's pipeline (Simulation::buildPotential) at
// a test size: every weight, bias and per-epoch loss of the default
// {64,32,32,1} network, pinned by bit pattern.
TEST(Trainer, TrainerGolden) {
  const EamPotential oracle(kDefaultCutoff);
  DatasetConfig data;
  data.count = 16;
  Rng rng(2021 ^ 0x5eedULL);
  const auto labeled = generateDataset(oracle, data, rng);
  const Descriptor descriptor(standardPqSets(), kDefaultCutoff);
  const SpeciesBaseline baseline = SpeciesBaseline::fit(labeled);
  std::vector<TrainSample> samples;
  for (const auto& ls : labeled)
    samples.push_back(makeSample(descriptor, ls, &baseline));

  Network net({64, 32, 32, 1});
  Rng init(2021 ^ 0xabcdULL);
  net.initHe(init);
  Trainer::Config cfg;
  cfg.epochs = 1;  // one train() call per epoch, so every loss is seen
  cfg.seed = 2021 ^ 0x7777ULL;
  Trainer trainer(net, cfg);
  trainer.fitStandardization(samples);
  BitHash losses;
  for (int e = 0; e < 6; ++e) losses.add(trainer.train(samples));
  EXPECT_EQ(losses.h, 0xae8650ae44357001ULL);
  EXPECT_EQ(networkHash(net), 0xed6739044e1ec07cULL);
}

// The per-atom trainer as it stood before steps ran through the dense
// tile kernel: two forward passes per atom, a scalar backward that skips
// masked outputs, then Adam. Trainer must match it bit for bit.
class ReferenceTrainer {
 public:
  ReferenceTrainer(Network& network, Trainer::Config config)
      : network_(network), config_(config), rng_(config.seed),
        lr_(config.learningRate) {
    for (int li = 0; li < network.numLayers(); ++li) {
      const auto& l = network.layer(li);
      weightState_.push_back({std::vector<double>(l.weights.size(), 0.0),
                              std::vector<double>(l.weights.size(), 0.0)});
      biasState_.push_back({std::vector<double>(l.bias.size(), 0.0),
                            std::vector<double>(l.bias.size(), 0.0)});
      weightGrads_.emplace_back(l.weights.size(), 0.0);
      biasGrads_.emplace_back(l.bias.size(), 0.0);
    }
    activations_.resize(static_cast<std::size_t>(network.numLayers()) + 1);
  }

  double train(const std::vector<TrainSample>& samples) {
    double last = 0.0;
    for (int e = 0; e < config_.epochs; ++e) {
      std::vector<std::size_t> order(samples.size());
      std::iota(order.begin(), order.end(), 0);
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng_.uniformBelow(i)]);
      double total = 0.0;
      for (std::size_t k : order) total += step(samples[k]);
      last = total / static_cast<double>(samples.size());
      lr_ *= config_.decay;
    }
    return last;
  }

 private:
  struct AdamState {
    std::vector<double> m, v;
  };

  double forwardAtom(const double* raw) {
    const int d = network_.inputDim();
    const int numLayers = network_.numLayers();
    auto& acts = activations_;
    acts[0].resize(static_cast<std::size_t>(d));
    for (int c = 0; c < d; ++c)
      acts[0][static_cast<std::size_t>(c)] =
          (raw[c] - network_.inputShift()[static_cast<std::size_t>(c)]) *
          network_.inputScale()[static_cast<std::size_t>(c)];
    for (int li = 0; li < numLayers; ++li) {
      const auto& l = network_.layer(li);
      const bool last = li + 1 == numLayers;
      auto& out = acts[static_cast<std::size_t>(li) + 1];
      out.resize(static_cast<std::size_t>(l.out));
      for (int o = 0; o < l.out; ++o) {
        const double* w = l.weights.data() + static_cast<std::size_t>(o) * l.in;
        double acc = l.bias[static_cast<std::size_t>(o)];
        for (int c = 0; c < l.in; ++c)
          acc += w[c] * acts[static_cast<std::size_t>(li)][static_cast<std::size_t>(c)];
        out[static_cast<std::size_t>(o)] = last ? acc : std::max(acc, 0.0);
      }
    }
    return acts[static_cast<std::size_t>(numLayers)][0];
  }

  double step(const TrainSample& sample) {
    const int d = network_.inputDim();
    const int numLayers = network_.numLayers();
    for (int li = 0; li < numLayers; ++li) {
      auto& wg = weightGrads_[static_cast<std::size_t>(li)];
      auto& bg = biasGrads_[static_cast<std::size_t>(li)];
      std::fill(wg.begin(), wg.end(), 0.0);
      std::fill(bg.begin(), bg.end(), 0.0);
    }
    double predicted = 0.0;
    for (int a = 0; a < sample.nAtoms; ++a)
      predicted += forwardAtom(sample.features.data() +
                               static_cast<std::size_t>(a) * d);
    const double perAtomError = (predicted - sample.energy) / sample.nAtoms;
    const double loss = perAtomError * perAtomError;
    const double dLdE = 2.0 * perAtomError / sample.nAtoms;
    for (int a = 0; a < sample.nAtoms; ++a) {
      forwardAtom(sample.features.data() + static_cast<std::size_t>(a) * d);
      std::vector<double> grad{dLdE};
      for (int li = numLayers - 1; li >= 0; --li) {
        const auto& l = network_.layer(li);
        const bool last = li + 1 == numLayers;
        std::vector<double> prev(static_cast<std::size_t>(l.in), 0.0);
        auto& wg = weightGrads_[static_cast<std::size_t>(li)];
        auto& bg = biasGrads_[static_cast<std::size_t>(li)];
        const auto& input = activations_[static_cast<std::size_t>(li)];
        const auto& output = activations_[static_cast<std::size_t>(li) + 1];
        for (int o = 0; o < l.out; ++o) {
          double g = grad[static_cast<std::size_t>(o)];
          if (!last && output[static_cast<std::size_t>(o)] <= 0.0) g = 0.0;
          if (g == 0.0) continue;
          bg[static_cast<std::size_t>(o)] += g;
          const double* w = l.weights.data() + static_cast<std::size_t>(o) * l.in;
          double* wgRow = wg.data() + static_cast<std::size_t>(o) * l.in;
          for (int c = 0; c < l.in; ++c) {
            wgRow[c] += g * input[static_cast<std::size_t>(c)];
            prev[static_cast<std::size_t>(c)] += g * w[c];
          }
        }
        grad = std::move(prev);
      }
    }
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
    return loss;
  }

  Network& network_;
  Trainer::Config config_;
  Rng rng_;
  double lr_;
  long steps_ = 0;
  std::vector<AdamState> weightState_, biasState_;
  std::vector<std::vector<double>> activations_, weightGrads_, biasGrads_;
};

std::vector<TrainSample> randomSamples(int dim, const std::vector<int>& atoms,
                                       Rng& rng) {
  std::vector<TrainSample> samples;
  for (int n : atoms) {
    TrainSample s;
    s.nAtoms = n;
    s.features.resize(static_cast<std::size_t>(n) * dim);
    for (double& f : s.features) f = rng.uniform() * 4 - 1;
    s.energy = (rng.uniform() - 0.5) * n;
    samples.push_back(std::move(s));
  }
  return samples;
}

TEST(Trainer, StepsAllocateNothingOnceSized) {
  Rng rng(71);
  const auto samples = randomSamples(64, {3, 65, 1, 40}, rng);
  Network net({64, 33, 17, 1});
  net.initHe(rng);
  Trainer::Config cfg;
  cfg.epochs = 1;
  Trainer trainer(net, cfg);
  trainer.fitStandardization(samples);
  trainer.epoch(samples);  // sizes the scratch for the largest sample
  const long before = gAllocations.load();
  trainer.epoch(samples);
  // The epoch's shuffled order is its one allocation; the steps make
  // none, whatever their atom count.
  EXPECT_EQ(gAllocations.load() - before, 1);
}

// Trains one network with Trainer and its copy with the reference for a
// few epochs; every loss, weight and bias must agree bit for bit.
void expectMatchesReference(const std::vector<int>& channels,
                            const std::vector<int>& atoms,
                            double negativeBias) {
  SCOPED_TRACE(::testing::Message()
               << "channels " << channels.size() << " deep, width "
               << channels[1] << ", atoms[0] " << atoms[0]
               << ", negative bias " << negativeBias);
  Rng rng(static_cast<std::uint64_t>(channels[1] * 1000 + atoms[0]));
  const auto samples = randomSamples(channels.front(), atoms, rng);
  Network net(channels);
  net.initHe(rng);
  if (negativeBias != 0.0) {
    // Every other hidden output of every layer, and all of the last
    // hidden layer's, sit below zero for every atom: whole ReLU columns
    // are masked and the last layer sees no gradient at all.
    for (int li = 0; li + 1 < net.numLayers(); ++li) {
      auto& bias = net.layer(li).bias;
      const bool lastHidden = li + 2 == net.numLayers();
      for (std::size_t o = 0; o < bias.size(); ++o)
        if (lastHidden || o % 2 == 0) bias[o] = negativeBias;
    }
  }
  Trainer::Config cfg;
  cfg.epochs = 3;
  cfg.learningRate = 1e-2;
  cfg.seed = 99;
  Trainer trainer(net, cfg);
  trainer.fitStandardization(samples);
  Network ref = net;
  ReferenceTrainer reference(ref, cfg);
  for (int round = 0; round < 2; ++round) {
    const double got = trainer.train(samples);
    const double want = reference.train(samples);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want));
  }
  for (int li = 0; li < net.numLayers(); ++li) {
    const auto& a = net.layer(li);
    const auto& b = ref.layer(li);
    for (std::size_t i = 0; i < a.weights.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.weights[i]),
                std::bit_cast<std::uint64_t>(b.weights[i]))
          << "layer " << li << " weight " << i;
    for (std::size_t i = 0; i < a.bias.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.bias[i]),
                std::bit_cast<std::uint64_t>(b.bias[i]))
          << "layer " << li << " bias " << i;
  }
}

TEST(Trainer, MatchesPerAtomReference) {
  const std::vector<std::vector<int>> shapes = {
      {7, 5, 3, 1}, {64, 33, 17, 1}, {10, 1}, {64, 32, 32, 1}};
  for (const auto& channels : shapes) {
    for (int n : {1, 2, 3, 5, 63, 64, 65})
      expectMatchesReference(channels, {n, n, n}, 0.0);
    // Mixed sizes: the scratch grows and shrinks between steps.
    expectMatchesReference(channels, {65, 1, 64, 3, 2}, 0.0);
  }
}

TEST(Trainer, MatchesPerAtomReferenceWithMaskedColumns) {
  for (const auto& channels :
       std::vector<std::vector<int>>{{7, 5, 3, 1}, {64, 33, 17, 1}})
    for (int n : {1, 5, 64, 65})
      expectMatchesReference(channels, {n, n, 2}, -1e3);
}

}  // namespace
}  // namespace tkmc
