// NnpEnergyModel evaluates a final state's network rows only at the
// sites its hop changes (Net::affectedSites) and reuses the initial
// state's atomic energies everywhere else. The contract is bitwise: every
// state energy must equal a full recompute — features of the whole
// region on the swapped VET, one atomEnergy() per site, summed in site
// order with vacancies masked — through the single-system path and
// through batches of every size.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "kmc/serial_engine.hpp"
#include "vacancy_systems.hpp"

namespace tkmc {
namespace {

// The energies NnpEnergyModel must reproduce, computed the long way.
std::vector<double> fullRecompute(const Cet& cet, const RegionFeatures& rf,
                                  const Network& network, const Vet& vet,
                                  int numFinal) {
  std::vector<double> energies;
  std::vector<double> features;
  for (int s = 0; s <= numFinal; ++s) {
    Vet state = vet;
    if (s > 0) state.swap(0, Cet::jumpTargetId(s - 1));
    rf.compute(state, features);
    double total = 0.0;
    for (int site = 0; site < cet.nRegion(); ++site) {
      if (state[site] == Species::kVacancy) continue;
      total += network.atomEnergy(
          {features.data() + static_cast<std::size_t>(site) * rf.dim(),
           static_cast<std::size_t>(rf.dim())});
    }
    energies.push_back(total);
  }
  return energies;
}

class NnpEnergyModelOracle : public ::testing::TestWithParam<double> {
 protected:
  NnpEnergyModelOracle()
      : cet_(kLatticeConstantFe, GetParam()), net_(cet_),
        table_(net_.distances(), standardPqSets()),
        network_({64, 16, 16, 1}), features_(net_, table_) {
    Rng rng(41);
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
  RegionFeatures features_;
};

TEST_P(NnpEnergyModelOracle, SingleSystemEqualsFullRecompute) {
  NnpEnergyModel model(cet_, net_, table_, network_);
  Rng rng(101);
  expectSingleSystemsEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return fullRecompute(cet_, features_, network_, vet, n);
  });
}

TEST_P(NnpEnergyModelOracle, MixedSizeBatchesEqualFullRecompute) {
  NnpEnergyModel model(cet_, net_, table_, network_);
  Rng rng(202);
  expectBatchesEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return fullRecompute(cet_, features_, network_, vet, n);
  });
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, NnpEnergyModelOracle,
                         ::testing::Values(4.0, kDefaultCutoff));

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Golden fingerprint of a serial trajectory driven by the double NNP
// backend: 14^3 cells, 15% Cu, 3 vacancies, cutoff 4.0 A, a fixed-seed
// He-initialized {64,16,16,1} network, engine seed 42, 200 steps.
constexpr std::uint32_t kGoldenNnpHash = 0xa4c78ddfu;
constexpr std::uint64_t kGoldenNnpTime = 0x3ec74e4ce7d96875ull;

TEST(NnpEnergyModelGolden, SerialTrajectoryBitIdentical) {
  const Cet cet(kLatticeConstantFe, 4.0);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  Network network({64, 16, 16, 1});
  Rng rng(7);
  network.initHe(rng);
  LatticeState state(BccLattice(14, 14, 14, kLatticeConstantFe));
  Rng arng(8);
  state.randomAlloy(0.15, 3, arng);
  NnpEnergyModel model(cet, net, table, network);
  KmcConfig cfg;
  cfg.seed = 42;
  cfg.tEnd = 1e300;
  SerialEngine engine(state, model, cet, cfg);
  for (int i = 0; i < 200; ++i) engine.step();
  EXPECT_EQ(state.contentHash(), kGoldenNnpHash);
  EXPECT_EQ(bits(engine.time()), kGoldenNnpTime);
  EXPECT_EQ(engine.steps(), 200u);
}

}  // namespace
}  // namespace tkmc
