#include "nnp/conv_stack.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "conv_reference.hpp"
#include "dense_tile_sweep.hpp"
#include "nnp/dense_tile.hpp"

namespace tkmc {
namespace {

Network::Snapshot makeSnapshot(const std::vector<int>& channels,
                               std::uint64_t seed) {
  Network net(channels);
  Rng rng(seed);
  net.initHe(rng);
  return net.foldedSnapshot();
}

std::vector<float> randomInput(int m, int dim, std::uint64_t seed) {
  std::vector<float> x(static_cast<std::size_t>(m) * dim);
  Rng rng(seed);
  for (float& v : x) v = static_cast<float>(rng.uniform() * 2 - 1);
  return x;
}

class ConvStackModes
    : public ::testing::TestWithParam<ConvStack::Mode> {};

TEST_P(ConvStackModes, AgreesWithNaiveReference) {
  const auto snap = makeSnapshot({16, 32, 32, 1}, 3);
  const ConvStack stack(snap);
  const int m = 37;
  const auto input = randomInput(m, 16, 4);
  std::vector<float> reference(static_cast<std::size_t>(m));
  std::vector<float> output(static_cast<std::size_t>(m));
  stack.forward(ConvStack::Mode::kNaiveConv, input.data(), m, reference.data());
  stack.forward(GetParam(), input.data(), m, output.data());
  for (int i = 0; i < m; ++i)
    EXPECT_NEAR(output[static_cast<std::size_t>(i)],
                reference[static_cast<std::size_t>(i)], 1e-3f)
        << "row " << i;
}

INSTANTIATE_TEST_SUITE_P(AllModes, ConvStackModes,
                         ::testing::Values(ConvStack::Mode::kMatmul,
                                           ConvStack::Mode::kMatmulSimd,
                                           ConvStack::Mode::kFusedLayer));

TEST(ConvStack, MatchesDoublePrecisionNetwork) {
  Network net({8, 16, 16, 1});
  Rng rng(7);
  net.initHe(rng);
  net.setInputTransform(std::vector<double>(8, 0.5),
                        std::vector<double>(8, 2.0));
  const ConvStack stack(net.foldedSnapshot());
  const int m = 9;
  const auto input = randomInput(m, 8, 8);
  std::vector<float> out(static_cast<std::size_t>(m));
  stack.forward(ConvStack::Mode::kFusedLayer, input.data(), m, out.data());
  for (int i = 0; i < m; ++i) {
    std::vector<double> f;
    for (int c = 0; c < 8; ++c)
      f.push_back(input[static_cast<std::size_t>(i) * 8 + c]);
    EXPECT_NEAR(out[static_cast<std::size_t>(i)], net.atomEnergy(f), 2e-3);
  }
}

TEST(ConvStack, FusedReducesTrafficVersusUnfused) {
  const auto snap = makeSnapshot({64, 128, 128, 128, 64, 1}, 5);
  const ConvStack stack(snap);
  const int m = 256;
  const auto input = randomInput(m, 64, 6);
  std::vector<float> out(static_cast<std::size_t>(m));
  Traffic naive, fused;
  stack.forward(ConvStack::Mode::kMatmul, input.data(), m, out.data(), &naive);
  stack.forward(ConvStack::Mode::kFusedLayer, input.data(), m, out.data(),
                &fused);
  EXPECT_LT(fused.mainBytes(), naive.mainBytes());
  EXPECT_GT(fused.arithmeticIntensity(), naive.arithmeticIntensity());
}

TEST(ConvStack, LayerTrafficMatchesClosedForm) {
  const auto snap = makeSnapshot({64, 128, 1}, 9);
  const ConvStack stack(snap);
  const int m = 100;
  const Traffic t = stack.layerTraffic(0, m, /*fused=*/false);
  const std::uint64_t matmulRead = (100ULL * 64 + 64ULL * 128) * 4;
  const std::uint64_t matmulWrite = 100ULL * 128 * 4;
  // + bias pass + relu pass (each read+write m*out floats).
  EXPECT_EQ(t.mainReadBytes, matmulRead + 2 * matmulWrite);
  EXPECT_EQ(t.mainWriteBytes, 3 * matmulWrite);
  EXPECT_EQ(t.flops, 2ULL * 100 * 64 * 128 + 2ULL * 100 * 128);
}

TEST(ConvStack, FusedLayerTrafficHasNoElementwisePasses) {
  const auto snap = makeSnapshot({64, 128, 1}, 9);
  const ConvStack stack(snap);
  const Traffic fused = stack.layerTraffic(0, 100, /*fused=*/true);
  EXPECT_EQ(fused.mainReadBytes, (100ULL * 64 + 64ULL * 128) * 4);
  EXPECT_EQ(fused.mainWriteBytes, 100ULL * 128 * 4);
}

TEST(ConvStack, PaperShapeIntensityIsMemoryBound) {
  // N,H,W = 32,16,16 with the production channels: each unfused layer
  // sits far left of the 43.63 F/B knee (paper Fig. 9 upper panel).
  const auto snap = makeSnapshot({64, 128, 128, 128, 64, 1}, 10);
  const ConvStack stack(snap);
  const int m = 32 * 16 * 16;
  for (int layer = 0; layer < stack.numLayers(); ++layer) {
    const Traffic t = stack.layerTraffic(layer, m, /*fused=*/false);
    EXPECT_LT(t.arithmeticIntensity(), 43.63);
  }
}

struct ShapeCase {
  std::vector<int> channels;
  int m;
};

class ConvStackShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ConvStackShapeSweep, AllModesAgree) {
  const auto& c = GetParam();
  const auto snap = makeSnapshot(c.channels, 31);
  const ConvStack stack(snap);
  const auto input = randomInput(c.m, c.channels.front(), 32);
  const std::size_t outSize =
      static_cast<std::size_t>(c.m) * static_cast<std::size_t>(c.channels.back());
  std::vector<float> reference(outSize), out(outSize);
  stack.forward(ConvStack::Mode::kNaiveConv, input.data(), c.m,
                reference.data());
  for (auto mode : {ConvStack::Mode::kMatmul, ConvStack::Mode::kMatmulSimd,
                    ConvStack::Mode::kFusedLayer}) {
    stack.forward(mode, input.data(), c.m, out.data());
    for (std::size_t i = 0; i < outSize; ++i)
      ASSERT_NEAR(out[i], reference[i],
                  1e-3f * std::max(1.0f, std::abs(reference[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvStackShapeSweep,
    ::testing::Values(ShapeCase{{1, 1}, 5}, ShapeCase{{4, 4, 4}, 17},
                      ShapeCase{{64, 128, 128, 128, 64, 1}, 64},
                      ShapeCase{{3, 100, 1}, 1},
                      ShapeCase{{16, 8, 4, 2, 1}, 33}));

TEST_P(ConvStackShapeSweep, FusedIsBitExactAgainstScalarReference) {
  const auto& c = GetParam();
  const auto snap = makeSnapshot(c.channels, 33);
  const ConvStack stack(snap);
  const auto input = randomInput(c.m, c.channels.front(), 34);
  const std::vector<float> expected = testref::stack(snap, input, c.m);
  std::vector<float> out(expected.size());
  stack.forward(ConvStack::Mode::kFusedLayer, input.data(), c.m, out.data());
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]),
              std::bit_cast<std::uint32_t>(expected[i]))
        << "index " << i;
}

// Both float instances of the register-blocked tile kernel against the
// scalar oracle. The SSE2 one is the baseline path and runs everywhere.
TEST(DenseTileFloat, Sse2BitExactAgainstScalarReference) {
  testref::expectDenseTileMatchesReference<float>(detail::denseTileSse2);
}

TEST(DenseTileFloat, Avx2BitExactAgainstScalarReference) {
  if (!simd::hasAvx2()) GTEST_SKIP() << "this CPU has no AVX2";
  testref::expectDenseTileMatchesReference<float>(detail::denseTileAvx2);
}

TEST(DenseTileFloat, ReluClampsNegativesOnly) {
  // One input channel of value 1 and weight 0: each output equals its
  // bias, so ReLU must zero exactly the negative biases.
  const float x[1] = {1.0f};
  const float w[5] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
  const float b[5] = {-2.0f, 0.0f, 3.0f, -0.5f, 1.5f};
  float y[5];
  detail::denseTile(x, w, b, y, 1, 1, 5, /*relu=*/true);
  const float expected[5] = {0.0f, 0.0f, 3.0f, 0.0f, 1.5f};
  for (int o = 0; o < 5; ++o) EXPECT_EQ(y[o], expected[o]) << "output " << o;
  detail::denseTile(x, w, b, y, 1, 1, 5, /*relu=*/false);
  for (int o = 0; o < 5; ++o) EXPECT_EQ(y[o], b[o]) << "output " << o;
}

TEST(ConvStack, ForwardTrafficAccumulates) {
  const auto snap = makeSnapshot({8, 16, 1}, 11);
  const ConvStack stack(snap);
  const int m = 10;
  const auto input = randomInput(m, 8, 12);
  std::vector<float> out(static_cast<std::size_t>(m));
  Traffic once, twice;
  stack.forward(ConvStack::Mode::kMatmul, input.data(), m, out.data(), &once);
  stack.forward(ConvStack::Mode::kMatmul, input.data(), m, out.data(), &twice);
  stack.forward(ConvStack::Mode::kMatmul, input.data(), m, out.data(), &twice);
  EXPECT_EQ(twice.mainBytes(), 2 * once.mainBytes());
  EXPECT_EQ(twice.flops, 2 * once.flops);
}

}  // namespace
}  // namespace tkmc
