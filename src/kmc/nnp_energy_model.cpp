#include "kmc/nnp_energy_model.hpp"

#include "common/error.hpp"

namespace tkmc {

NnpEnergyModel::NnpEnergyModel(const Cet& cet, const Net& net,
                               const FeatureTable& table,
                               const Network& network)
    : TetEnergyModel(cet, net), network_(network), features_(net, table) {
  require(network.inputDim() == table.numPq() * kNumElements,
          "network input dimension must match the descriptor");
}

void NnpEnergyModel::atomEnergies(std::span<Vet* const> vets, int numFinal,
                                  double* out) {
  const std::size_t d = static_cast<std::size_t>(network_.inputDim());
  const std::size_t rowCount = rows().systemRows(numFinal) * vets.size();
  featureBuffer_.resize(rowCount * d);
  double* f = featureBuffer_.data();
  for (Vet* vet : vets)
    for (int s = 0; s <= numFinal; ++s) {
      // The initial state's swap(0, 0) leaves the VET as it is.
      const int target = s > 0 ? Cet::jumpTargetId(s - 1) : 0;
      const std::span<const int> sites = rows().sites(s);
      vet->swap(0, target);
      features_.computeSites(*vet, sites, f);
      vet->swap(0, target);
      f += sites.size() * d;
    }
  network_.forwardBatch(featureBuffer_.data(), static_cast<int>(rowCount), out);
}

}  // namespace tkmc
