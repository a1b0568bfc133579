#include "kmc/bond_counting_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "analysis/cluster_analysis.hpp"
#include "kmc/serial_engine.hpp"
#include "vacancy_systems.hpp"

namespace tkmc {
namespace {

constexpr double kCutoff = 4.0;

struct World {
  World() : cet(2.87, kCutoff), net(cet), lattice(12, 12, 12, 2.87),
            state(lattice) {
    state.fill(Species::kFe);
    state.setSpeciesAt(center, Species::kVacancy);
  }

  Cet cet;
  Net net;
  BccLattice lattice;
  LatticeState state;
  Vec3i center{12, 12, 12};
};

TEST(BondCounting, FlatLandscapeInPureIron) {
  World w;
  BondCountingModel model(w.cet, w.net);
  const auto energies =
      model.stateEnergies(w.state, w.center, kNumJumpDirections);
  for (int k = 1; k <= kNumJumpDirections; ++k)
    EXPECT_NEAR(energies[static_cast<std::size_t>(k)], energies[0], 1e-12);
}

TEST(BondCounting, PureIronEnergyMatchesHandCount) {
  // Far from the vacancy, each Fe atom has 8 1NN and 6 2NN bonds:
  // E = (8 * eps1 + 6 * eps2) / 2. Compare against a region-atom energy
  // computed by differencing two region sums.
  World w;
  BondCountingModel::Parameters p;
  BondCountingModel model(w.cet, w.net, p);
  Vet vet = Vet::gather(w.cet, w.state, w.center);
  const auto energies = model.stateEnergiesFromVet(vet, 0);
  // The region holds nRegion sites, one of them the vacancy. Away from
  // the vacancy every atom contributes the bulk value; atoms adjacent to
  // the vacancy lose bonds. Total = bulk * (nRegion - 1) - corrections.
  const double bulk = (8 * p.eps1[0] + 6 * p.eps2[0]) / 2;
  // 8 atoms miss one 1NN bond, 6 atoms miss one 2NN bond.
  const double expected =
      bulk * (w.cet.nRegion() - 1) - 8 * p.eps1[0] / 2 - 6 * p.eps2[0] / 2;
  EXPECT_NEAR(energies[0], expected, 1e-9);
}

TEST(BondCounting, MixingCostsEnergy) {
  // Swapping one bulk Fe for Cu in pure Fe must raise the energy more
  // than the pure-phase average (positive mixing enthalpy -> demixing).
  World w;
  BondCountingModel::Parameters p;
  BondCountingModel model(w.cet, w.net, p);
  // 1NN mixing rule: 2*epsFeCu > epsFeFe + epsCuCu.
  EXPECT_GT(2 * p.eps1[1], p.eps1[0] + p.eps1[2]);
  EXPECT_GT(2 * p.eps2[1], p.eps2[0] + p.eps2[2]);

  // Energetics through the model: a Cu pair at 1NN beats two isolated Cu.
  Vet isolated = Vet::gather(w.cet, w.state, w.center);
  // Pick two *region* sites (their energies are part of the sum) that
  // are first neighbours of each other, away from the vacancy, and a
  // third region site far from both.
  int siteA = -1, siteB = -1, siteC = -1;
  for (int a = 1 + kNumJumpDirections; a < w.cet.nRegion() && siteA < 0; ++a) {
    const Vec3i pa = w.cet.site(a);
    if (pa.norm2() < 8) continue;  // keep clear of the vacancy
    for (const Vec3i& d : BccLattice::firstNeighborOffsets()) {
      const int b = w.cet.idOf(pa + d);
      if (b >= 1 + kNumJumpDirections && b < w.cet.nRegion() &&
          (pa + d).norm2() >= 8) {
        siteA = a;
        siteB = b;
        break;
      }
    }
  }
  for (int c = 1 + kNumJumpDirections; c < w.cet.nRegion(); ++c) {
    const Vec3i pc = w.cet.site(c);
    if (pc.norm2() < 8) continue;
    if ((pc - w.cet.site(siteA)).norm2() > 12 &&
        (pc - w.cet.site(siteB)).norm2() > 12) {
      siteC = c;
      break;
    }
  }
  ASSERT_GE(siteA, 0);
  ASSERT_GE(siteB, 0);
  ASSERT_GE(siteC, 0);
  Vet adjacent = isolated;
  adjacent.set(siteA, Species::kCu);
  adjacent.set(siteB, Species::kCu);
  Vet separated = isolated;
  separated.set(siteA, Species::kCu);
  separated.set(siteC, Species::kCu);
  BondCountingModel m2(w.cet, w.net);
  const double eAdjacent = m2.stateEnergiesFromVet(adjacent, 0)[0];
  const double eSeparated = m2.stateEnergiesFromVet(separated, 0)[0];
  EXPECT_LT(eAdjacent, eSeparated);  // clustering is downhill
}

TEST(BondCounting, DrivesTheSerialEngine) {
  World w;
  BondCountingModel model(w.cet, w.net);
  KmcConfig cfg;
  cfg.seed = 3;
  cfg.tEnd = 1e300;
  SerialEngine engine(w.state, model, w.cet, cfg);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(engine.step().advanced);
  EXPECT_EQ(w.state.countSpecies(Species::kVacancy), 1);
}

TEST(BondCounting, ForwardReverseAntisymmetry) {
  World w;
  Rng rng(4);
  LatticeState alloy(w.lattice);
  alloy.randomAlloy(0.2, 1, rng);
  BondCountingModel model(w.cet, w.net);
  const auto& jumps = BccLattice::firstNeighborOffsets();
  for (int trial = 0; trial < 25; ++trial) {
    const Vec3i from = w.lattice.wrap(alloy.vacancies()[0]);
    const auto before = model.stateEnergies(alloy, from, kNumJumpDirections);
    const int k = static_cast<int>(rng.uniformBelow(8));
    const Vec3i to = w.lattice.wrap(from + jumps[static_cast<std::size_t>(k)]);
    if (alloy.speciesAt(to) == Species::kVacancy) continue;
    const double dForward = before[static_cast<std::size_t>(k) + 1] - before[0];
    alloy.hopVacancy(from, to);
    const auto after = model.stateEnergies(alloy, to, kNumJumpDirections);
    int reverse = -1;
    for (int j = 0; j < kNumJumpDirections; ++j)
      if (w.lattice.wrap(to + jumps[static_cast<std::size_t>(j)]) == from)
        reverse = j;
    ASSERT_GE(reverse, 0);
    EXPECT_NEAR(dForward,
                -(after[static_cast<std::size_t>(reverse) + 1] - after[0]),
                1e-10);
  }
}

TEST(BondCounting, RequiresTwoShellCutoff) {
  const Cet tiny(2.87, 2.6);  // 1NN only
  const Net tinyNet(tiny);
  EXPECT_THROW(BondCountingModel(tiny, tinyNet), Error);
}

TEST(BondCounting, PrecipitationIsFasterThanWithEam) {
  // Sanity of the "first approach": a strongly demixing tabulated model
  // coarsens Cu measurably within a short event budget.
  const Cet cet(2.87, kCutoff);
  const Net net(cet);
  BondCountingModel::Parameters strong;
  strong.eps1 = {-0.60, -0.45, -0.58};  // heavy mixing penalty
  strong.eps2 = {-0.30, -0.22, -0.29};
  BondCountingModel model(cet, net, strong);
  LatticeState state(BccLattice(12, 12, 12, 2.87));
  Rng rng(6);
  state.randomAlloy(0.05, 4, rng);
  const auto before = analyzeClusters(state, Species::kCu);
  KmcConfig cfg;
  cfg.seed = 8;
  cfg.tEnd = 1e300;
  SerialEngine engine(state, model, cet, cfg);
  for (int i = 0; i < 4000; ++i) engine.step();
  const auto after = analyzeClusters(state, Species::kCu);
  EXPECT_EQ(after.totalAtoms, before.totalAtoms);
  EXPECT_LT(after.isolatedCount, before.isolatedCount);
}

// BondCountingModel evaluates a final state's site energies only where
// its hop changes them and reuses the initial state's elsewhere. Every
// state energy must still equal the full-region bond sum, site by site
// in id order with vacancies masked, bit for bit.
class BondCountingOracle : public ::testing::TestWithParam<double> {
 protected:
  BondCountingOracle() : cet_(kLatticeConstantFe, GetParam()), net_(cet_) {
    // Shell indices found the way the model finds them.
    const double a = cet_.latticeConstant();
    for (std::size_t i = 0; i < net_.distances().size(); ++i) {
      if (std::abs(net_.distances()[i] - a * std::sqrt(3.0) / 2.0) < 1e-9)
        firstShell_ = static_cast<int>(i);
      if (std::abs(net_.distances()[i] - a) < 1e-9)
        secondShell_ = static_cast<int>(i);
    }
  }

  std::vector<double> fullRecompute(const Vet& vet, int numFinal) const {
    const auto slot = [](Species a, Species b) {
      return static_cast<std::size_t>(static_cast<int>(a) + static_cast<int>(b));
    };
    std::vector<double> energies;
    for (int s = 0; s <= numFinal; ++s) {
      Vet state = vet;
      if (s > 0) state.swap(0, Cet::jumpTargetId(s - 1));
      double total = 0.0;
      for (int site = 0; site < cet_.nRegion(); ++site) {
        const Species self = state[site];
        if (self == Species::kVacancy) continue;
        double bonds = 0.0;
        for (const Net::Entry& e : net_.neighbors(site)) {
          if (e.distIndex != firstShell_ && e.distIndex != secondShell_)
            continue;
          const Species nb = state[e.siteId];
          if (nb == Species::kVacancy) continue;
          bonds += e.distIndex == firstShell_ ? params_.eps1[slot(self, nb)]
                                              : params_.eps2[slot(self, nb)];
        }
        total += 0.5 * bonds;
      }
      energies.push_back(total);
    }
    return energies;
  }

  Cet cet_;
  Net net_;
  BondCountingModel::Parameters params_;
  int firstShell_ = -1;
  int secondShell_ = -1;
};

TEST_P(BondCountingOracle, SingleSystemEqualsFullRecompute) {
  BondCountingModel model(cet_, net_, params_);
  Rng rng(707);
  expectSingleSystemsEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return fullRecompute(vet, n);
  });
}

TEST_P(BondCountingOracle, MixedSizeBatchesEqualFullRecompute) {
  BondCountingModel model(cet_, net_, params_);
  Rng rng(808);
  expectBatchesEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return fullRecompute(vet, n);
  });
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, BondCountingOracle,
                         ::testing::Values(4.0, kDefaultCutoff));

}  // namespace
}  // namespace tkmc
