#include "nnp/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "dense_tile_sweep.hpp"
#include "nnp/dense_tile.hpp"

namespace tkmc {
namespace {

Network smallNet(std::uint64_t seed = 1) {
  Network n({4, 8, 8, 1});
  Rng rng(seed);
  n.initHe(rng);
  return n;
}

TEST(Network, ShapeAccessors) {
  const Network n({64, 128, 128, 128, 64, 1});
  EXPECT_EQ(n.inputDim(), 64);
  EXPECT_EQ(n.numLayers(), 5);
  EXPECT_EQ(n.maxWidth(), 128);
  EXPECT_EQ(n.layer(0).in, 64);
  EXPECT_EQ(n.layer(0).out, 128);
  EXPECT_EQ(n.layer(4).out, 1);
}

TEST(Network, ZeroWeightsGiveZeroEnergy) {
  const Network n({4, 8, 1});
  const std::vector<double> f{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(n.atomEnergy(f), 0.0);
}

TEST(Network, BiasOnlyNetworkIsConstant) {
  Network n({4, 1});
  n.layer(0).bias[0] = 2.5;
  const std::vector<double> a{0.0, 0.0, 0.0, 0.0};
  const std::vector<double> b{9.0, -3.0, 1.0, 7.0};
  EXPECT_DOUBLE_EQ(n.atomEnergy(a), 2.5);
  EXPECT_DOUBLE_EQ(n.atomEnergy(b), 2.5);
}

TEST(Network, SingleLinearLayerComputesDotProduct) {
  Network n({3, 1});
  n.layer(0).weights = {1.0, -2.0, 0.5};
  n.layer(0).bias = {0.25};
  const std::vector<double> x{2.0, 1.0, 4.0};
  EXPECT_DOUBLE_EQ(n.atomEnergy(x), 2.0 - 2.0 + 2.0 + 0.25);
}

TEST(Network, ReluClampsHiddenActivations) {
  // One hidden unit with negative pre-activation must contribute zero.
  Network n({1, 1, 1});
  n.layer(0).weights = {1.0};
  n.layer(0).bias = {0.0};
  n.layer(1).weights = {1.0};
  n.layer(1).bias = {0.0};
  EXPECT_DOUBLE_EQ(n.atomEnergy(std::vector<double>{3.0}), 3.0);
  EXPECT_DOUBLE_EQ(n.atomEnergy(std::vector<double>{-3.0}), 0.0);
}

TEST(Network, ForwardBatchMatchesAtomEnergy) {
  const Network n = smallNet();
  std::vector<double> features;
  Rng rng(4);
  const int atoms = 17;
  for (int i = 0; i < atoms * n.inputDim(); ++i)
    features.push_back(rng.uniform() * 4 - 2);
  std::vector<double> batch(static_cast<std::size_t>(atoms));
  n.forwardBatch(features.data(), atoms, batch.data());
  for (int i = 0; i < atoms; ++i) {
    const double single = n.atomEnergy(
        {features.data() + static_cast<std::size_t>(i) * n.inputDim(),
         static_cast<std::size_t>(n.inputDim())});
    EXPECT_DOUBLE_EQ(batch[static_cast<std::size_t>(i)], single);
  }
}

TEST(Network, StateEnergyIsSumOfAtomEnergies) {
  const Network n = smallNet();
  std::vector<double> features;
  Rng rng(4);
  const int atoms = 11;
  for (int i = 0; i < atoms * n.inputDim(); ++i)
    features.push_back(rng.uniform());
  std::vector<double> batch(static_cast<std::size_t>(atoms));
  n.forwardBatch(features.data(), atoms, batch.data());
  double sum = 0.0;
  for (double e : batch) sum += e;
  EXPECT_NEAR(n.stateEnergy(features.data(), atoms), sum, 1e-12);
}

TEST(Network, InputTransformShiftsAndScales) {
  Network n({2, 1});
  n.layer(0).weights = {1.0, 1.0};
  n.setInputTransform({1.0, 2.0}, {2.0, 0.5});
  // y = (x0-1)*2 + (x1-2)*0.5
  EXPECT_DOUBLE_EQ(n.atomEnergy(std::vector<double>{2.0, 4.0}), 2.0 + 1.0);
}

TEST(Network, InputGradientMatchesFiniteDifference) {
  Network n = smallNet(9);
  n.setInputTransform({0.1, -0.2, 0.3, 0.0}, {1.5, 0.7, 1.0, 2.0});
  std::vector<double> x{0.4, -0.9, 1.3, 0.2};
  std::vector<double> grad(4);
  n.inputGradient(x, grad);
  const double h = 1e-6;
  for (int c = 0; c < 4; ++c) {
    const double orig = x[static_cast<std::size_t>(c)];
    x[static_cast<std::size_t>(c)] = orig + h;
    const double ep = n.atomEnergy(x);
    x[static_cast<std::size_t>(c)] = orig - h;
    const double em = n.atomEnergy(x);
    x[static_cast<std::size_t>(c)] = orig;
    EXPECT_NEAR(grad[static_cast<std::size_t>(c)], (ep - em) / (2 * h), 1e-5);
  }
}

TEST(Network, FoldedSnapshotMatchesDoubleForward) {
  Network n({4, 8, 1});
  Rng rng(11);
  n.initHe(rng);
  n.setInputTransform({0.5, 1.0, -0.5, 2.0}, {2.0, 1.0, 0.25, 0.5});
  const auto snap = n.foldedSnapshot();
  // Evaluate the snapshot manually in double to isolate the fold algebra.
  std::vector<double> x{1.0, -2.0, 4.0, 0.5};
  std::vector<double> cur(x);
  std::vector<double> nxt;
  for (std::size_t li = 0; li < snap.weights.size(); ++li) {
    const int in = snap.channels[li];
    const int out = snap.channels[li + 1];
    nxt.assign(static_cast<std::size_t>(out), 0.0);
    for (int o = 0; o < out; ++o) {
      double acc = snap.biases[li][static_cast<std::size_t>(o)];
      for (int c = 0; c < in; ++c)
        acc += static_cast<double>(
                   snap.weights[li][static_cast<std::size_t>(o) * in + c]) *
               cur[static_cast<std::size_t>(c)];
      nxt[static_cast<std::size_t>(o)] =
          li + 1 == snap.weights.size() ? acc : std::max(acc, 0.0);
    }
    cur = nxt;
  }
  EXPECT_NEAR(cur[0], n.atomEnergy(x), 1e-4);  // float casts in the fold
}

// Architecture sweep: gradients must match finite differences for any
// channel layout (catches shape bookkeeping bugs in backprop).
class NetworkShapeSweep
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(NetworkShapeSweep, InputGradientMatchesFiniteDifference) {
  Network n(GetParam());
  Rng rng(31);
  n.initHe(rng);
  std::vector<double> x(static_cast<std::size_t>(n.inputDim()));
  Rng xr(32);
  for (double& v : x) v = xr.uniform() * 2 - 1;
  std::vector<double> grad(x.size());
  n.inputGradient(x, grad);
  const double h = 1e-6;
  for (int c = 0; c < n.inputDim(); c += std::max(1, n.inputDim() / 5)) {
    const double orig = x[static_cast<std::size_t>(c)];
    x[static_cast<std::size_t>(c)] = orig + h;
    const double ep = n.atomEnergy(x);
    x[static_cast<std::size_t>(c)] = orig - h;
    const double em = n.atomEnergy(x);
    x[static_cast<std::size_t>(c)] = orig;
    EXPECT_NEAR(grad[static_cast<std::size_t>(c)], (ep - em) / (2 * h), 1e-5)
        << "channel " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NetworkShapeSweep,
    ::testing::Values(std::vector<int>{2, 1}, std::vector<int>{3, 5, 1},
                      std::vector<int>{8, 16, 16, 1},
                      std::vector<int>{64, 128, 128, 128, 64, 1},
                      std::vector<int>{5, 3, 7, 1}));

// Row-major per-atom forward, as Network::forwardOne() computes it: each
// output starts at its bias and accumulates w * x with c ascending.
// forwardBatch() must reproduce it bit for bit.
double rowMajorForward(const Network& n, const double* features) {
  std::vector<double> cur(static_cast<std::size_t>(n.inputDim()));
  for (int c = 0; c < n.inputDim(); ++c)
    cur[static_cast<std::size_t>(c)] =
        (features[c] - n.inputShift()[static_cast<std::size_t>(c)]) *
        n.inputScale()[static_cast<std::size_t>(c)];
  for (int li = 0; li < n.numLayers(); ++li) {
    const Network::Layer& l = n.layer(li);
    const bool last = li + 1 == n.numLayers();
    std::vector<double> nxt(static_cast<std::size_t>(l.out));
    for (int o = 0; o < l.out; ++o) {
      const double* w = l.weights.data() + static_cast<std::size_t>(o) * l.in;
      double acc = l.bias[static_cast<std::size_t>(o)];
      for (int c = 0; c < l.in; ++c)
        acc += w[c] * cur[static_cast<std::size_t>(c)];
      nxt[static_cast<std::size_t>(o)] = last ? acc : std::max(acc, 0.0);
    }
    cur = std::move(nxt);
  }
  return cur[0];
}

void expectBatchMatchesRowMajor(const Network& n, const std::string& what) {
  Rng rng(77);
  const int maxAtoms = 531;
  std::vector<double> features(static_cast<std::size_t>(maxAtoms) *
                               n.inputDim());
  for (double& f : features) f = rng.uniform() * 6.0 - 1.0;
  // Tiles are 64 rows: counts on both sides of each tile edge.
  for (const int atoms : {0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 235, 531}) {
    // One spare slot past the batch must stay untouched.
    std::vector<double> batch(static_cast<std::size_t>(atoms) + 1, -7.25);
    n.forwardBatch(features.data(), atoms, batch.data());
    for (int i = 0; i < atoms; ++i)
      ASSERT_EQ(batch[static_cast<std::size_t>(i)],
                rowMajorForward(
                    n, features.data() + static_cast<std::size_t>(i) *
                                             n.inputDim()))
          << what << ": atom " << i << " of " << atoms;
    EXPECT_EQ(batch.back(), -7.25) << what << ": wrote past " << atoms;
  }
}

TEST(Network, ForwardBatchIsBitEqualToRowMajorForward) {
  for (const std::vector<int>& channels :
       {std::vector<int>{64, 32, 32, 1},
        std::vector<int>{64, 128, 128, 128, 64, 1}}) {
    Network n(channels);
    Rng rng(3);
    n.initHe(rng);
    for (int li = 0; li < n.numLayers(); ++li)
      for (double& b : n.layer(li).bias) b = rng.uniform() - 0.5;
    const std::string shape = std::to_string(channels.size()) + " widths";
    expectBatchMatchesRowMajor(n, shape + ", He init");

    // Edits through layer() and setInputTransform() must show up in the
    // very next call: forwardBatch keeps no copy that can go stale.
    for (int li = 0; li < n.numLayers(); ++li)
      for (double& w : n.layer(li).weights) w *= -1.5;
    n.layer(0).bias[0] += 0.75;
    expectBatchMatchesRowMajor(n, shape + ", edited weights");

    std::vector<double> shift(static_cast<std::size_t>(n.inputDim()));
    std::vector<double> scale(shift.size());
    for (std::size_t c = 0; c < shift.size(); ++c) {
      shift[c] = rng.uniform() * 2.0;
      scale[c] = 0.5 + rng.uniform();
    }
    n.setInputTransform(shift, scale);
    expectBatchMatchesRowMajor(n, shape + ", input transform");
  }
}

// Both double instances of the register-blocked tile kernel that
// forwardBatch runs, against the scalar oracle. The SSE2 one is the
// baseline path and runs everywhere.
TEST(DenseTileDouble, Sse2BitExactAgainstScalarReference) {
  testref::expectDenseTileMatchesReference<double>(detail::denseTileSse2);
}

TEST(DenseTileDouble, Avx2BitExactAgainstScalarReference) {
  if (!simd::hasAvx2()) GTEST_SKIP() << "this CPU has no AVX2";
  testref::expectDenseTileMatchesReference<double>(detail::denseTileAvx2);
}

TEST(Network, HeInitIsDeterministicPerSeed) {
  Network a({4, 8, 1}), b({4, 8, 1});
  Rng ra(3), rb(3);
  a.initHe(ra);
  b.initHe(rb);
  EXPECT_EQ(a.layer(0).weights, b.layer(0).weights);
}

}  // namespace
}  // namespace tkmc
