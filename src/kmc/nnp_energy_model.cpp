#include "kmc/nnp_energy_model.hpp"

#include "common/error.hpp"

namespace tkmc {

NnpEnergyModel::NnpEnergyModel(const Cet& cet, const Net& net,
                               const FeatureTable& table,
                               const Network& network)
    : cet_(cet), network_(network), features_(net, table),
      rows_(RowPlan::hopLocal(net)) {
  require(network.inputDim() == table.numPq() * kNumElements,
          "network input dimension must match the descriptor");
}

std::vector<double> NnpEnergyModel::stateEnergies(const LatticeState& state,
                                                  Vec3i center, int numFinal) {
  Vet vet = Vet::gather(cet_, state, center);
  return stateEnergiesFromVet(vet, numFinal);
}

std::vector<double> NnpEnergyModel::stateEnergiesFromVet(Vet& vet,
                                                         int numFinal) {
  Vet* const one[] = {&vet};
  return std::move(stateEnergiesBatch(one, numFinal).front());
}

std::vector<std::vector<double>> NnpEnergyModel::stateEnergiesBatch(
    std::span<Vet* const> vets, int numFinal) {
  require(numFinal >= 0 && numFinal <= kNumJumpDirections,
          "invalid number of final states");
  const std::size_t d = static_cast<std::size_t>(network_.inputDim());
  const std::size_t systemRows = rows_.systemRows(numFinal);
  const std::size_t rows = systemRows * vets.size();
  featureBuffer_.resize(rows * d);
  double* f = featureBuffer_.data();
  for (Vet* vet : vets)
    for (int s = 0; s <= numFinal; ++s) {
      // The initial state's swap(0, 0) leaves the VET as it is.
      const int target = s > 0 ? Cet::jumpTargetId(s - 1) : 0;
      const std::span<const int> sites = rows_.sites(s);
      vet->swap(0, target);
      features_.computeSites(*vet, sites, f);
      vet->swap(0, target);
      f += sites.size() * d;
    }
  energyBuffer_.resize(rows);
  network_.forwardBatch(featureBuffer_.data(), static_cast<int>(rows),
                        energyBuffer_.data());

  std::vector<std::vector<double>> energies(vets.size());
  for (std::size_t sys = 0; sys < vets.size(); ++sys) {
    energies[sys].resize(static_cast<std::size_t>(numFinal) + 1);
    rows_.reduce(*vets[sys], numFinal,
                 energyBuffer_.data() + sys * systemRows,
                 energies[sys].data());
  }
  return energies;
}

}  // namespace tkmc
