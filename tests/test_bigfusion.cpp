#include "sunway/bigfusion_operator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "conv_reference.hpp"
#include "nnp/conv_stack.hpp"

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

TEST(BigFusion, BitExactAgainstFusedLayerStack) {
  const auto snap = makeSnapshot({64, 128, 128, 128, 64, 1}, 2);
  const ConvStack stack(snap);
  CpeGrid grid;
  BigFusionOperator op(snap, grid, 32);
  op.loadModel();
  grid.collectTraffic();

  const int m = 9 * 253;  // the AKMC batch shape (states x region sites)
  const auto input = randomInput(m, 64, 3);
  std::vector<float> expected(static_cast<std::size_t>(m));
  std::vector<float> actual(static_cast<std::size_t>(m));
  stack.forward(ConvStack::Mode::kFusedLayer, input.data(), m, expected.data());
  op.forward(input.data(), m, actual.data());
  for (int i = 0; i < m; ++i)
    ASSERT_EQ(actual[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i)])
        << "row " << i;
}

TEST(BigFusion, SteadyStateMainTrafficIsInputPlusOutputOnly) {
  const auto snap = makeSnapshot({64, 128, 128, 128, 64, 1}, 4);
  CpeGrid grid;
  BigFusionOperator op(snap, grid, 32);
  op.loadModel();
  grid.collectTraffic();

  const int m = 2048;
  const auto input = randomInput(m, 64, 5);
  std::vector<float> out(static_cast<std::size_t>(m));
  op.forward(input.data(), m, out.data());
  const Traffic t = grid.collectTraffic();
  EXPECT_EQ(t.mainReadBytes, static_cast<std::uint64_t>(m) * 64 * sizeof(float));
  EXPECT_EQ(t.mainWriteBytes, static_cast<std::uint64_t>(m) * 1 * sizeof(float));
  EXPECT_GT(t.rmaBytes, 0u);  // weights flow over the mesh instead
}

TEST(BigFusion, ArithmeticIntensityBeatsLayerwiseByOrders) {
  const auto snap = makeSnapshot({64, 128, 128, 128, 64, 1}, 6);
  const ConvStack stack(snap);
  CpeGrid grid;
  BigFusionOperator op(snap, grid, 32);
  op.loadModel();
  grid.collectTraffic();

  const int m = 32 * 16 * 16;  // the paper's Fig. 9 example shape
  const auto input = randomInput(m, 64, 7);
  std::vector<float> out(static_cast<std::size_t>(m));
  Traffic layerwise;
  stack.forward(ConvStack::Mode::kFusedLayer, input.data(), m, out.data(),
                &layerwise);
  op.forward(input.data(), m, out.data());
  const Traffic fused = grid.collectTraffic();
  EXPECT_GT(fused.arithmeticIntensity(),
            10.0 * layerwise.arithmeticIntensity());
  // Paper: intensity rises to ~509 F/B and crosses the 43.63 F/B knee
  // into the compute-bound regime.
  EXPECT_GT(fused.arithmeticIntensity(), 300.0);
  EXPECT_GT(fused.arithmeticIntensity(), 43.63);
}

TEST(BigFusion, RespectsLdmCapacity) {
  const auto snap = makeSnapshot({64, 128, 128, 128, 64, 1}, 8);
  CpeGrid grid;
  BigFusionOperator op(snap, grid, 32);
  op.loadModel();
  const int m = 512;
  const auto input = randomInput(m, 64, 9);
  std::vector<float> out(static_cast<std::size_t>(m));
  op.forward(input.data(), m, out.data());
  EXPECT_LE(grid.maxLdmHighWater(), grid.spec().ldmBytes);
}

TEST(BigFusion, OversizedTileIsRejectedAtConstruction) {
  const auto snap = makeSnapshot({64, 128, 128, 128, 64, 1}, 10);
  CpeGrid grid;
  EXPECT_THROW(BigFusionOperator(snap, grid, 100000), Error);
}

TEST(BigFusion, MoreLayersThanColumnsIsRejected) {
  const auto snap =
      makeSnapshot({8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 1}, 11);  // 10 layers
  CpeGrid grid;
  EXPECT_THROW(BigFusionOperator(snap, grid, 8), Error);
}

TEST(BigFusion, ForwardBeforeLoadModelThrows) {
  const auto snap = makeSnapshot({8, 8, 1}, 12);
  CpeGrid grid;
  BigFusionOperator op(snap, grid, 8);
  const auto input = randomInput(8, 8, 13);
  std::vector<float> out(8);
  EXPECT_THROW(op.forward(input.data(), 8, out.data()), Error);
}

TEST(BigFusion, RaggedTailTileIsHandled) {
  const auto snap = makeSnapshot({16, 32, 1}, 14);
  const ConvStack stack(snap);
  CpeGrid grid;
  BigFusionOperator op(snap, grid, 32);
  op.loadModel();
  const int m = 33;  // one full tile + 1 leftover row
  const auto input = randomInput(m, 16, 15);
  std::vector<float> expected(static_cast<std::size_t>(m));
  std::vector<float> actual(static_cast<std::size_t>(m));
  stack.forward(ConvStack::Mode::kFusedLayer, input.data(), m, expected.data());
  op.forward(input.data(), m, actual.data());
  for (int i = 0; i < m; ++i)
    EXPECT_EQ(actual[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i)]);
}

// Tile-height sweep: every mBlock must give identical results and the
// same steady-state main-memory traffic.
class BigFusionTileSweep : public ::testing::TestWithParam<int> {};

TEST_P(BigFusionTileSweep, ResultsAndTrafficIndependentOfTileHeight) {
  const auto snap = makeSnapshot({32, 64, 64, 1}, 21);
  const int m = 333;
  const auto input = randomInput(m, 32, 22);
  const std::vector<float> expected = testref::stack(snap, input, m);

  CpeGrid grid;
  BigFusionOperator op(snap, grid, GetParam());
  op.loadModel();
  grid.collectTraffic();
  std::vector<float> actual(static_cast<std::size_t>(m));
  op.forward(input.data(), m, actual.data());
  for (int i = 0; i < m; ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(actual[static_cast<std::size_t>(i)]),
              std::bit_cast<std::uint32_t>(expected[static_cast<std::size_t>(i)]))
        << "row " << i;
  const Traffic t = grid.collectTraffic();
  EXPECT_EQ(t.mainReadBytes, static_cast<std::uint64_t>(m) * 32 * sizeof(float));
  EXPECT_EQ(t.mainWriteBytes, static_cast<std::uint64_t>(m) * sizeof(float));
}

INSTANTIATE_TEST_SUITE_P(TileHeights, BigFusionTileSweep,
                         ::testing::Values(1, 7, 16, 32, 64, 128));

// Architecture sweep: any stack up to eight layers must pass through.
class BigFusionShapeSweep
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(BigFusionShapeSweep, MatchesScalarReference) {
  const auto snap = makeSnapshot(GetParam(), 23);
  const int m = 97;
  const auto input = randomInput(m, GetParam().front(), 24);
  const std::vector<float> expected = testref::stack(snap, input, m);
  std::vector<float> actual(expected.size());
  CpeGrid grid;
  BigFusionOperator op(snap, grid, 16);
  op.loadModel();
  op.forward(input.data(), m, actual.data());
  for (std::size_t i = 0; i < expected.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(actual[i]),
              std::bit_cast<std::uint32_t>(expected[i]))
        << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BigFusionShapeSweep,
    ::testing::Values(std::vector<int>{8, 1},                        // 1 layer
                      std::vector<int>{16, 16, 16, 16},              // wide out
                      std::vector<int>{64, 128, 128, 128, 64, 1},    // paper
                      std::vector<int>{64, 32, 32, 1},               // default
                      std::vector<int>{5, 17, 3, 33, 15, 2},         // tails
                      std::vector<int>{4, 8, 8, 8, 8, 8, 8, 8, 1})); // 8 layers

TEST(BigFusion, ModelLoadTrafficCountsOncePerHoldingCpe) {
  const auto snap = makeSnapshot({16, 32, 1}, 16);
  CpeGrid grid;
  BigFusionOperator op(snap, grid, 8);
  const Traffic load = op.loadModel();
  // Two layers, each held by the 8 CPEs of its column.
  const std::uint64_t layerBytes =
      (16ULL * 32 + 32 + 32ULL * 1 + 1) * sizeof(float);
  EXPECT_EQ(load.mainReadBytes, 8 * layerBytes);
}

}  // namespace
}  // namespace tkmc
