// NnpEnergyModel evaluates a final state's network rows only at the
// sites its hop changes (Net::affectedSites) and reuses the initial
// state's atomic energies everywhere else. The contract is bitwise: every
// state energy must equal a full recompute — features of the whole
// region on the swapped VET, one atomEnergy() per site, summed in site
// order with vacancies masked — through the single-system path and
// through batches of every size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "kmc/serial_engine.hpp"

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

int pick(Rng& rng, std::size_t n) {
  return static_cast<int>(rng.uniform() * static_cast<double>(n)) %
         static_cast<int>(n);
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

  // A random vacancy system: an Fe-Cu environment around the vacancy at
  // site 0, plus extra vacancies on a jump target, on a site some hop
  // changes, and on an unchanged site that neighbours a changed one (so
  // masking and feature reuse both see vacancies).
  Vet randomSystem(Rng& rng) const {
    Vet vet(cet_.nAll());
    for (int id = 1; id < cet_.nAll(); ++id)
      vet.set(id, rng.uniform() < 0.3 ? Species::kCu : Species::kFe);
    vet.set(0, Species::kVacancy);
    const int k = pick(rng, kNumJumpDirections);
    const auto affected = net_.affectedSites(k);
    if (rng.uniform() < 0.5)
      vet.set(Cet::jumpTargetId(pick(rng, kNumJumpDirections)),
              Species::kVacancy);
    if (rng.uniform() < 0.7)
      vet.set(affected[static_cast<std::size_t>(pick(rng, affected.size()))],
              Species::kVacancy);
    if (rng.uniform() < 0.7) {
      const int site =
          affected[static_cast<std::size_t>(pick(rng, affected.size()))];
      std::vector<int> unaffected;
      for (const Net::Entry& e : net_.neighbors(site))
        if (!std::binary_search(affected.begin(), affected.end(), e.siteId))
          unaffected.push_back(e.siteId);
      if (!unaffected.empty())
        vet.set(unaffected[static_cast<std::size_t>(
                    pick(rng, unaffected.size()))],
                Species::kVacancy);
    }
    return vet;
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
  for (int i = 0; i < 120; ++i) {
    Vet vet = randomSystem(rng);
    const Vet before = vet;
    const int numFinal = i % (kNumJumpDirections + 1);
    const std::vector<double> energies =
        model.stateEnergiesFromVet(vet, numFinal);
    EXPECT_EQ(vet.data(), before.data()) << "system " << i;
    const std::vector<double> expected =
        fullRecompute(cet_, features_, network_, vet, numFinal);
    ASSERT_EQ(energies.size(), expected.size());
    for (std::size_t s = 0; s < expected.size(); ++s)
      EXPECT_EQ(energies[s], expected[s])
          << "system " << i << ", state " << s << " of " << numFinal;
  }
}

TEST_P(NnpEnergyModelOracle, MixedSizeBatchesEqualFullRecompute) {
  NnpEnergyModel model(cet_, net_, table_, network_);
  Rng rng(202);
  int systems = 0;
  int batchIndex = 0;
  for (const int batchSize : {1, 2, 3, 5, 8, 13, 21, 34, 1, 40}) {
    std::vector<Vet> vets;
    for (int i = 0; i < batchSize; ++i) vets.push_back(randomSystem(rng));
    const std::vector<Vet> before = vets;
    std::vector<Vet*> ptrs;
    for (Vet& v : vets) ptrs.push_back(&v);
    const int numFinal = batchIndex++ % (kNumJumpDirections + 1);
    const auto batch = model.stateEnergiesBatch(ptrs, numFinal);
    ASSERT_EQ(batch.size(), vets.size());
    for (int i = 0; i < batchSize; ++i) {
      const Vet& vet = vets[static_cast<std::size_t>(i)];
      EXPECT_EQ(vet.data(), before[static_cast<std::size_t>(i)].data());
      const std::vector<double> expected =
          fullRecompute(cet_, features_, network_, vet, numFinal);
      ASSERT_EQ(batch[static_cast<std::size_t>(i)].size(), expected.size());
      for (std::size_t s = 0; s < expected.size(); ++s)
        EXPECT_EQ(batch[static_cast<std::size_t>(i)][s], expected[s])
            << "batch of " << batchSize << ", system " << i << ", state "
            << s << " of " << numFinal;
    }
    systems += batchSize;
  }
  EXPECT_GE(systems, 120);
  EXPECT_TRUE(model.stateEnergiesBatch({}, kNumJumpDirections).empty());
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
