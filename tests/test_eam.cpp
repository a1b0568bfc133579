#include "eam/eam_potential.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "kmc/eam_energy_model.hpp"
#include "nnp/dataset.hpp"
#include "vacancy_systems.hpp"

namespace tkmc {
namespace {

Structure perfectBcc(int cells, double a) {
  Structure s;
  s.box = {cells * a, cells * a, cells * a};
  for (int x = 0; x < cells; ++x)
    for (int y = 0; y < cells; ++y)
      for (int z = 0; z < cells; ++z) {
        s.positions.push_back({x * a, y * a, z * a});
        s.species.push_back(Species::kFe);
        s.positions.push_back({(x + 0.5) * a, (y + 0.5) * a, (z + 0.5) * a});
        s.species.push_back(Species::kFe);
      }
  return s;
}

TEST(EamPotential, PairIsSymmetricInSpecies) {
  const EamPotential eam;
  for (double r : {2.2, 2.5, 3.0, 4.5, 6.0}) {
    EXPECT_DOUBLE_EQ(eam.pair(Species::kFe, Species::kCu, r),
                     eam.pair(Species::kCu, Species::kFe, r));
  }
}

TEST(EamPotential, PairVanishesAtCutoff) {
  const EamPotential eam(6.5);
  EXPECT_DOUBLE_EQ(eam.pair(Species::kFe, Species::kFe, 6.5), 0.0);
  EXPECT_DOUBLE_EQ(eam.pair(Species::kFe, Species::kFe, 7.0), 0.0);
  EXPECT_NEAR(eam.pair(Species::kFe, Species::kFe, 6.499), 0.0, 1e-5);
}

TEST(EamPotential, DensityVanishesAtCutoff) {
  const EamPotential eam(6.5);
  EXPECT_DOUBLE_EQ(eam.density(Species::kCu, 6.5), 0.0);
  EXPECT_GT(eam.density(Species::kCu, 2.5), 0.0);
}

TEST(EamPotential, PairIsAttractiveNearEquilibrium) {
  const EamPotential eam;
  EXPECT_LT(eam.pair(Species::kFe, Species::kFe, 2.5), 0.0);
  // Strongly repulsive at short range.
  EXPECT_GT(eam.pair(Species::kFe, Species::kFe, 1.4), 0.0);
}

TEST(EamPotential, EmbeddingIsNegativeAndConcave) {
  const EamPotential eam;
  EXPECT_LT(eam.embedding(Species::kFe, 1.0), 0.0);
  // Concavity (the many-body saturation EAM models): doubling the density
  // gains less than double the embedding energy.
  EXPECT_GT(eam.embedding(Species::kFe, 2.0),
            2.0 * eam.embedding(Species::kFe, 1.0));
  EXPECT_DOUBLE_EQ(eam.embedding(Species::kFe, 0.0), 0.0);
}

TEST(EamPotential, PairDerivativeMatchesFiniteDifference) {
  const EamPotential eam;
  const double h = 1e-6;
  for (double r : {2.0, 2.5, 3.3, 5.0, 5.9, 6.2}) {
    const double fd = (eam.pair(Species::kFe, Species::kCu, r + h) -
                       eam.pair(Species::kFe, Species::kCu, r - h)) /
                      (2 * h);
    EXPECT_NEAR(eam.pairDerivative(Species::kFe, Species::kCu, r), fd, 1e-6)
        << "r=" << r;
  }
}

TEST(EamPotential, DensityDerivativeMatchesFiniteDifference) {
  const EamPotential eam;
  const double h = 1e-6;
  for (double r : {2.0, 2.5, 3.3, 5.0, 5.9, 6.2}) {
    const double fd = (eam.density(Species::kCu, r + h) -
                       eam.density(Species::kCu, r - h)) /
                      (2 * h);
    EXPECT_NEAR(eam.densityDerivative(Species::kCu, r), fd, 1e-6) << "r=" << r;
  }
}

TEST(EamPotential, ForcesVanishOnPerfectLattice) {
  const EamPotential eam;
  // The box must exceed twice the cutoff: with shorter boxes the single
  // minimum-image convention breaks the inversion symmetry of each
  // atom's neighbour shell and leaves a spurious net force.
  const Structure s = perfectBcc(5, 2.87);
  for (const Vec3d& f : eam.forces(s)) {
    EXPECT_NEAR(f.x, 0.0, 1e-9);
    EXPECT_NEAR(f.y, 0.0, 1e-9);
    EXPECT_NEAR(f.z, 0.0, 1e-9);
  }
}

TEST(EamPotential, ForcesMatchFiniteDifferenceOfEnergy) {
  const EamPotential eam;
  DatasetConfig cfg;
  cfg.cellsX = cfg.cellsY = cfg.cellsZ = 2;
  Rng rng(5);
  Structure s = randomCell(cfg, rng);
  const auto forces = eam.forces(s);
  const double h = 1e-5;
  for (std::size_t atom : {std::size_t{0}, s.size() / 2, s.size() - 1}) {
    for (int axis = 0; axis < 3; ++axis) {
      double* coord = axis == 0 ? &s.positions[atom].x
                    : axis == 1 ? &s.positions[atom].y
                                : &s.positions[atom].z;
      const double original = *coord;
      *coord = original + h;
      const double ePlus = eam.totalEnergy(s);
      *coord = original - h;
      const double eMinus = eam.totalEnergy(s);
      *coord = original;
      const double fd = -(ePlus - eMinus) / (2 * h);
      const double analytic = axis == 0 ? forces[atom].x
                            : axis == 1 ? forces[atom].y
                                        : forces[atom].z;
      EXPECT_NEAR(analytic, fd, 1e-5) << "atom " << atom << " axis " << axis;
    }
  }
}

TEST(EamPotential, TotalEnergyIsNegativeForBoundCrystal) {
  const EamPotential eam;
  const Structure s = perfectBcc(3, 2.87);
  EXPECT_LT(eam.totalEnergy(s), 0.0);
}

TEST(EamPotential, PositiveHeatOfMixing) {
  // Swapping one Fe for Cu in an Fe matrix and one Cu for Fe in a Cu
  // matrix should cost energy relative to the pure phases — the demixing
  // tendency that drives Cu precipitation.
  const EamPotential eam;
  Structure fe = perfectBcc(3, 2.87);
  Structure cu = fe;
  for (auto& sp : cu.species) sp = Species::kCu;
  const double eFe = eam.totalEnergy(fe);
  const double eCu = eam.totalEnergy(cu);
  Structure mixed = fe;
  for (std::size_t i = 0; i < mixed.species.size(); i += 2)
    mixed.species[i] = Species::kCu;
  const double eMixed = eam.totalEnergy(mixed);
  EXPECT_GT(eMixed, 0.5 * (eFe + eCu));
}

TEST(EamPotential, AtomEnergyIgnoresVacancyNeighbors) {
  const EamPotential eam;
  std::vector<std::pair<Species, double>> withVac = {
      {Species::kFe, 2.5}, {Species::kVacancy, 2.5}, {Species::kCu, 2.9}};
  std::vector<std::pair<Species, double>> without = {{Species::kFe, 2.5},
                                                     {Species::kCu, 2.9}};
  EXPECT_DOUBLE_EQ(eam.atomEnergy(Species::kFe, withVac),
                   eam.atomEnergy(Species::kFe, without));
}

TEST(EamPotential, Eq7DecompositionMatchesAtomEnergy) {
  const EamPotential eam;
  std::vector<std::pair<Species, double>> nb = {
      {Species::kFe, 2.485}, {Species::kCu, 2.87}, {Species::kFe, 4.06}};
  const auto pd = eam.pairDensity(Species::kCu, nb);
  EXPECT_DOUBLE_EQ(
      0.5 * pd.pairSum + eam.embedding(Species::kCu, pd.densitySum),
      eam.atomEnergy(Species::kCu, nb));
}

// EamEnergyModel evaluates a final state's site energies only where its
// hop changes them and reuses the initial state's elsewhere. Every state
// energy must still equal the full-region sum of Eq. 7, site by site in
// id order with vacancies masked, bit for bit.
class EamEnergyModelOracle : public ::testing::TestWithParam<double> {
 protected:
  EamEnergyModelOracle()
      : cet_(kLatticeConstantFe, GetParam()), net_(cet_),
        potential_(GetParam()) {}

  std::vector<double> fullRecompute(const Vet& vet, int numFinal) const {
    std::vector<double> energies;
    for (int s = 0; s <= numFinal; ++s) {
      Vet state = vet;
      if (s > 0) state.swap(0, Cet::jumpTargetId(s - 1));
      double total = 0.0;
      for (int site = 0; site < cet_.nRegion(); ++site) {
        const Species self = state[site];
        if (self == Species::kVacancy) continue;
        double pairSum = 0.0;
        double density = 0.0;
        for (const Net::Entry& e : net_.neighbors(site)) {
          const Species nb = state[e.siteId];
          if (nb == Species::kVacancy) continue;
          const double r = net_.distances()[static_cast<std::size_t>(e.distIndex)];
          pairSum += potential_.pair(self, nb, r);
          density += potential_.density(nb, r);
        }
        total += 0.5 * pairSum + potential_.embedding(self, density);
      }
      energies.push_back(total);
    }
    return energies;
  }

  Cet cet_;
  Net net_;
  EamPotential potential_;
};

TEST_P(EamEnergyModelOracle, SingleSystemEqualsFullRecompute) {
  EamEnergyModel model(cet_, net_, potential_);
  Rng rng(505);
  expectSingleSystemsEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return fullRecompute(vet, n);
  });
}

TEST_P(EamEnergyModelOracle, MixedSizeBatchesEqualFullRecompute) {
  EamEnergyModel model(cet_, net_, potential_);
  Rng rng(606);
  expectBatchesEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return fullRecompute(vet, n);
  });
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, EamEnergyModelOracle,
                         ::testing::Values(4.0, kDefaultCutoff));

}  // namespace
}  // namespace tkmc
