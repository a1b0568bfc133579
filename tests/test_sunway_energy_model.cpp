#include "sunway/sunway_energy_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "kmc/serial_engine.hpp"
#include "parallel/parallel_engine.hpp"
#include "vacancy_systems.hpp"

namespace tkmc {
namespace {

class SunwayModelTest : public ::testing::Test {
 protected:
  SunwayModelTest()
      : cet_(2.87, 4.0), net_(cet_),
        table_(net_.distances(), standardPqSets()), network_({64, 16, 16, 1}),
        lattice_(14, 14, 14, 2.87), state_(lattice_) {
    Rng rng(7);
    network_.initHe(rng);
    Rng arng(8);
    state_.randomAlloy(0.15, 3, arng);
  }

  Cet cet_;
  Net net_;
  FeatureTable table_;
  Network network_;
  BccLattice lattice_;
  LatticeState state_;
};

TEST_F(SunwayModelTest, AgreesWithDoublePrecisionBackend) {
  SunwayEnergyModel sunway(cet_, net_, table_, network_);
  NnpEnergyModel reference(cet_, net_, table_, network_);
  for (const Vec3i& vac : state_.vacancies()) {
    const Vec3i center = lattice_.wrap(vac);
    const auto a = sunway.stateEnergies(state_, center, kNumJumpDirections);
    const auto b = reference.stateEnergies(state_, center, kNumJumpDirections);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      // Single vs double precision: relative agreement, not bitwise.
      const double scale = std::max(1.0, std::abs(b[s]));
      EXPECT_NEAR(a[s], b[s], scale * 1e-4) << "state " << s;
    }
  }
}

TEST_F(SunwayModelTest, EnergyDifferencesAgreeTighter) {
  // KMC only consumes dE = E_f - E_i; the absolute float error largely
  // cancels in the difference.
  SunwayEnergyModel sunway(cet_, net_, table_, network_);
  NnpEnergyModel reference(cet_, net_, table_, network_);
  const Vec3i center = lattice_.wrap(state_.vacancies()[0]);
  const auto a = sunway.stateEnergies(state_, center, kNumJumpDirections);
  const auto b = reference.stateEnergies(state_, center, kNumJumpDirections);
  for (int k = 1; k <= kNumJumpDirections; ++k) {
    const double dA = a[static_cast<std::size_t>(k)] - a[0];
    const double dB = b[static_cast<std::size_t>(k)] - b[0];
    EXPECT_NEAR(dA, dB, 1e-3 * std::max(1.0, std::abs(dB)));
  }
}

TEST_F(SunwayModelTest, DrivesTheSerialEngine) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  KmcConfig cfg;
  cfg.seed = 42;
  cfg.tEnd = 1e300;
  SerialEngine engine(state_, model, cet_, cfg);
  const auto cu = state_.countSpecies(Species::kCu);
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(engine.step().advanced);
  EXPECT_EQ(state_.countSpecies(Species::kCu), cu);
  EXPECT_EQ(state_.countSpecies(Species::kVacancy), 3);
}

TEST_F(SunwayModelTest, DeterministicAcrossInstances) {
  SunwayEnergyModel m1(cet_, net_, table_, network_);
  SunwayEnergyModel m2(cet_, net_, table_, network_);
  const Vec3i center = lattice_.wrap(state_.vacancies()[0]);
  const auto a = m1.stateEnergies(state_, center, kNumJumpDirections);
  const auto b = m2.stateEnergies(state_, center, kNumJumpDirections);
  EXPECT_EQ(a, b);  // bitwise: same kernels, same order
}

TEST_F(SunwayModelTest, TrafficFlowsThroughTheSimulator) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  EXPECT_GT(model.modelLoadTraffic().mainReadBytes, 0u);
  const Vec3i center = lattice_.wrap(state_.vacancies()[0]);
  model.stateEnergies(state_, center, kNumJumpDirections);
  const Traffic t = model.collectTraffic();
  EXPECT_GT(t.mainReadBytes, 0u);
  EXPECT_GT(t.flops, 0u);
  EXPECT_GT(t.rmaBytes, 0u);
  // Drained: a second collect sees nothing.
  EXPECT_EQ(model.collectTraffic().mainBytes(), 0u);
}

TEST_F(SunwayModelTest, MultiVacancyMaskingMatchesReference) {
  // Put two vacancies within one jumping region; masking must stay
  // consistent between the float and double backends.
  LatticeState crowded(lattice_);
  Rng rng(9);
  crowded.randomAlloy(0.1, 0, rng);
  crowded.setSpeciesAt({6, 6, 6}, Species::kVacancy);
  crowded.setSpeciesAt({8, 8, 6}, Species::kVacancy);
  SunwayEnergyModel sunway(cet_, net_, table_, network_);
  NnpEnergyModel reference(cet_, net_, table_, network_);
  const auto a = sunway.stateEnergies(crowded, {6, 6, 6}, kNumJumpDirections);
  const auto b = reference.stateEnergies(crowded, {6, 6, 6}, kNumJumpDirections);
  for (std::size_t s = 0; s < a.size(); ++s)
    EXPECT_NEAR(a[s], b[s], 1e-4 * std::max(1.0, std::abs(b[s])));
}

// SunwayEnergyModel feeds the CPE operators only the rows of
// RowPlan::hopLocal() and takes every other site's atomic energy from
// the initial state. The contract is bitwise: every state energy must
// equal the full-row pipeline — FeatureOperator::compute over every site
// of every state, one BigFusionOperator::forward over all those rows,
// and a site-order sum with the state's vacancies masked — through the
// single-system path and through batches of every size.
class SunwayFullRows {
 public:
  SunwayFullRows(const Net& net, const FeatureTable& table,
                 const Network& network)
      : features_(net, table, grid_), fusion_(network.foldedSnapshot(), grid_) {
    fusion_.loadModel();
  }

  std::vector<double> energies(const Vet& vet, int numFinal) {
    features_.compute(vet, numFinal, featureBuffer_);
    const int nRegion = features_.regionSites();
    const int m = (1 + numFinal) * nRegion;
    std::vector<float> atomE(static_cast<std::size_t>(m));
    fusion_.forward(featureBuffer_.data(), m, atomE.data());
    std::vector<double> out;
    for (int s = 0; s <= numFinal; ++s) {
      Vet state = vet;
      if (s > 0) state.swap(0, Cet::jumpTargetId(s - 1));
      double total = 0.0;
      for (int site = 0; site < nRegion; ++site) {
        if (state[site] == Species::kVacancy) continue;
        total += static_cast<double>(
            atomE[static_cast<std::size_t>(s * nRegion + site)]);
      }
      out.push_back(total);
    }
    return out;
  }

 private:
  CpeGrid grid_;
  FeatureOperator features_;
  BigFusionOperator fusion_;
  std::vector<float> featureBuffer_;
};

class SunwayEnergyModelOracle : public ::testing::TestWithParam<double> {
 protected:
  SunwayEnergyModelOracle()
      : cet_(kLatticeConstantFe, GetParam()), net_(cet_),
        table_(net_.distances(), standardPqSets()),
        network_({64, 16, 16, 1}) {
    Rng rng(43);
    network_.initHe(rng);
    for (int li = 0; li < network_.numLayers(); ++li)
      for (double& b : network_.layer(li).bias) b = rng.uniform() - 0.5;
    std::vector<double> shift(64), scale(64);
    for (std::size_t c = 0; c < shift.size(); ++c) {
      shift[c] = rng.uniform();
      scale[c] = 0.5 + rng.uniform();
    }
    network_.setInputTransform(shift, scale);
  }

  Cet cet_;
  Net net_;
  FeatureTable table_;
  Network network_;
};

TEST_P(SunwayEnergyModelOracle, SingleSystemEqualsFullRows) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  SunwayFullRows reference(net_, table_, network_);
  Rng rng(303);
  expectSingleSystemsEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return reference.energies(vet, n);
  });
}

TEST_P(SunwayEnergyModelOracle, MixedSizeBatchesEqualFullRows) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  SunwayFullRows reference(net_, table_, network_);
  Rng rng(404);
  expectBatchesEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return reference.energies(vet, n);
  });
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, SunwayEnergyModelOracle,
                         ::testing::Values(4.0, kDefaultCutoff));

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Golden fingerprint of a parallel trajectory driven by the Sunway
// backend: 2x1x1 in-process ranks, 16^3 cells, 12% Cu, 8 vacancies,
// cutoff 4.0 A, a fixed-seed He-initialized {64,16,16,1} network, engine
// seed 61, t_stop 1e-7 s, 16 cycles. Any change to the feature or
// big-fusion kernels, the row set they are fed or the per-state
// reduction that moves a single bit of an energy moves these pins.
constexpr std::uint32_t kGoldenSunwayHash = 0x729550ccu;
constexpr std::uint64_t kGoldenSunwayEvents = 58;
constexpr std::uint64_t kGoldenSunwayDiscarded = 7;
constexpr std::uint64_t kGoldenSunwayTime = 0x3ebad7f29abcaf46ull;

TEST(SunwayNnpGolden, ParallelTrajectoryBitIdentical) {
  const Cet cet(2.87, 4.0);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  Network network({64, 16, 16, 1});
  Rng rng(7);
  network.initHe(rng);
  LatticeState state(BccLattice(16, 16, 16, 2.87));
  Rng arng(51);
  state.randomAlloy(0.12, 8, arng);
  SunwayEnergyModel model(cet, net, table, network);
  ParallelConfig cfg;
  cfg.seed = 61;
  cfg.tStop = 1e-7;
  cfg.rankGrid = {2, 1, 1};
  ParallelEngine engine(state, model, cet, cfg);
  for (int c = 0; c < 16; ++c) engine.runCycle();
  EXPECT_EQ(engine.assembleGlobalState().contentHash(), kGoldenSunwayHash);
  EXPECT_EQ(engine.totalEvents(), kGoldenSunwayEvents);
  EXPECT_EQ(engine.discardedEvents(), kGoldenSunwayDiscarded);
  EXPECT_EQ(bits(engine.time()), kGoldenSunwayTime);
}

}  // namespace
}  // namespace tkmc
