// Every backend on the triple-encoding tables refuses a state count
// outside 0..kNumJumpDirections and a VET gathered for another CET, on
// every entry point, with tkmc::Error.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kmc/bond_counting_model.hpp"
#include "kmc/eam_energy_model.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "sunway/sunway_energy_model.hpp"

namespace tkmc {
namespace {

class TetBackendBounds : public ::testing::Test {
 protected:
  TetBackendBounds()
      : cet_(kLatticeConstantFe, 4.0), net_(cet_),
        table_(net_.distances(), standardPqSets()), network_({64, 8, 1}),
        potential_(4.0), lattice_(8, 8, 8, kLatticeConstantFe),
        state_(lattice_) {
    Rng rng(3);
    network_.initHe(rng);
    state_.randomAlloy(0.1, 1, rng);
  }

  std::vector<std::unique_ptr<EnergyModel>> backends() const {
    std::vector<std::unique_ptr<EnergyModel>> models;
    models.push_back(std::make_unique<EamEnergyModel>(cet_, net_, potential_));
    models.push_back(std::make_unique<BondCountingModel>(cet_, net_));
    models.push_back(
        std::make_unique<NnpEnergyModel>(cet_, net_, table_, network_));
    models.push_back(
        std::make_unique<SunwayEnergyModel>(cet_, net_, table_, network_));
    return models;
  }

  Cet cet_;
  Net net_;
  FeatureTable table_;
  Network network_;
  EamPotential potential_;
  BccLattice lattice_;
  LatticeState state_;
};

TEST_F(TetBackendBounds, StateCountOutOfRangeThrows) {
  const Vec3i center = lattice_.wrap(state_.vacancies()[0]);
  for (const auto& model : backends()) {
    SCOPED_TRACE(model->name());
    Vet vet = Vet::gather(cet_, state_, center);
    Vet* const one[] = {&vet};
    for (const int numFinal : {-1, kNumJumpDirections + 1}) {
      SCOPED_TRACE(numFinal);
      EXPECT_THROW(model->stateEnergies(state_, center, numFinal), Error);
      EXPECT_THROW(model->stateEnergiesFromVet(vet, numFinal), Error);
      EXPECT_THROW(model->stateEnergiesBatch(one, numFinal), Error);
      EXPECT_THROW(model->stateEnergiesBatch({}, numFinal), Error);
    }
    EXPECT_EQ(model->stateEnergiesFromVet(vet, 0).size(), 1u);
    EXPECT_EQ(model->stateEnergiesFromVet(vet, kNumJumpDirections).size(),
              static_cast<std::size_t>(kNumJumpDirections) + 1);
  }
}

TEST_F(TetBackendBounds, VetOfAnotherCetThrows) {
  const Vec3i center = lattice_.wrap(state_.vacancies()[0]);
  for (const auto& model : backends()) {
    SCOPED_TRACE(model->name());
    Vet good = Vet::gather(cet_, state_, center);
    Vet wrong(cet_.nAll() + 1);
    wrong.set(0, Species::kVacancy);
    Vet* const mixed[] = {&good, &wrong};
    EXPECT_THROW(model->stateEnergiesFromVet(wrong, kNumJumpDirections), Error);
    EXPECT_THROW(model->stateEnergiesBatch(mixed, kNumJumpDirections), Error);
  }
}

}  // namespace
}  // namespace tkmc
