#include "kmc/tet_energy_model.hpp"

#include <utility>

#include "common/error.hpp"

namespace tkmc {

TetEnergyModel::TetEnergyModel(const Cet& cet, const Net& net)
    : cet_(cet), rows_(RowPlan::hopLocal(net)) {}

std::vector<double> TetEnergyModel::stateEnergies(const LatticeState& state,
                                                  Vec3i center, int numFinal) {
  Vet vet = Vet::gather(cet_, state, center);
  return stateEnergiesFromVet(vet, numFinal);
}

std::vector<double> TetEnergyModel::stateEnergiesFromVet(Vet& vet,
                                                         int numFinal) {
  Vet* const one[] = {&vet};
  return std::move(stateEnergiesBatch(one, numFinal).front());
}

std::vector<std::vector<double>> TetEnergyModel::stateEnergiesBatch(
    std::span<Vet* const> vets, int numFinal) {
  require(numFinal >= 0 && numFinal <= kNumJumpDirections,
          "invalid number of final states");
  for (const Vet* vet : vets)
    require(vet->size() == cet_.nAll(),
            "VET size does not match the backend's CET");
  if (vets.empty()) return {};

  // Per call, never a member: a concurrentDispatchSafe() backend is
  // called from every rank thread at once. A thread-local buffer kept
  // alive between calls slowed serial_nnp's setup (DESIGN §22).
  const std::size_t systemRows = rows_.systemRows(numFinal);
  std::vector<double> atomE(systemRows * vets.size());
  atomEnergies(vets, numFinal, atomE.data());

  std::vector<std::vector<double>> energies(vets.size());
  for (std::size_t sys = 0; sys < vets.size(); ++sys) {
    energies[sys].resize(static_cast<std::size_t>(numFinal) + 1);
    rows_.reduce(*vets[sys], numFinal, atomE.data() + sys * systemRows,
                 energies[sys].data());
  }
  return energies;
}

}  // namespace tkmc
