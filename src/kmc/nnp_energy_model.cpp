#include "kmc/nnp_energy_model.hpp"

#include <numeric>

#include "common/error.hpp"

namespace tkmc {

NnpEnergyModel::NnpEnergyModel(const Cet& cet, const Net& net,
                               const FeatureTable& table,
                               const Network& network)
    : cet_(cet), net_(net), network_(network), features_(net, table) {
  require(network.inputDim() == table.numPq() * kNumElements,
          "network input dimension must match the descriptor");
  regionSiteIds_.resize(static_cast<std::size_t>(cet.nRegion()));
  std::iota(regionSiteIds_.begin(), regionSiteIds_.end(), 0);
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
  const int nRegion = cet_.nRegion();
  const std::size_t d = static_cast<std::size_t>(network_.inputDim());

  // Rows per system: every region site of the initial state, then the
  // affected sites of each final state in direction order.
  std::size_t systemRows = static_cast<std::size_t>(nRegion);
  for (int k = 0; k < numFinal; ++k)
    systemRows += net_.affectedSites(k).size();
  const std::size_t rows = systemRows * vets.size();
  featureBuffer_.resize(rows * d);
  double* f = featureBuffer_.data();
  for (Vet* vet : vets) {
    features_.computeSites(*vet, regionSiteIds_, f);
    f += static_cast<std::size_t>(nRegion) * d;
    for (int k = 0; k < numFinal; ++k) {
      const int target = Cet::jumpTargetId(k);
      const std::span<const int> sites = net_.affectedSites(k);
      vet->swap(0, target);
      features_.computeSites(*vet, sites, f);
      vet->swap(0, target);
      f += sites.size() * d;
    }
  }
  energyBuffer_.resize(rows);
  network_.forwardBatch(featureBuffer_.data(), static_cast<int>(rows),
                        energyBuffer_.data());

  // A state's atomic energies are the initial row with its affected
  // sites overwritten; the sum runs in site order with vacancies masked,
  // exactly as over a full recompute.
  std::vector<std::vector<double>> energies(vets.size());
  const double* atomE = energyBuffer_.data();
  for (std::size_t sys = 0; sys < vets.size(); ++sys) {
    const Vet& vet = *vets[sys];
    const double* initial = atomE;
    atomE += nRegion;
    std::vector<double>& systemEnergies = energies[sys];
    systemEnergies.resize(static_cast<std::size_t>(numFinal) + 1);
    for (int s = 0; s <= numFinal; ++s) {
      stateAtomEnergies_.assign(initial, initial + nRegion);
      if (s > 0)
        for (const int site : net_.affectedSites(s - 1))
          stateAtomEnergies_[static_cast<std::size_t>(site)] = *atomE++;
      double total = 0.0;
      for (int site = 0; site < nRegion; ++site) {
        if (stateSpecies(vet, s, site) == Species::kVacancy) continue;
        total += stateAtomEnergies_[static_cast<std::size_t>(site)];
      }
      systemEnergies[static_cast<std::size_t>(s)] = total;
    }
  }
  return energies;
}

}  // namespace tkmc
