#include "kmc/eam_energy_model.hpp"

namespace tkmc {

EamEnergyModel::EamEnergyModel(const Cet& cet, const Net& net,
                               const EamPotential& potential)
    : TetEnergyModel(cet, net), net_(net), potential_(potential) {
  numDist_ = static_cast<int>(net.distances().size());
  pairTable_.resize(static_cast<std::size_t>(kNumElements) * kNumElements *
                    numDist_);
  densityTable_.resize(static_cast<std::size_t>(kNumElements) * numDist_);
  for (int a = 0; a < kNumElements; ++a)
    for (int b = 0; b < kNumElements; ++b)
      for (int d = 0; d < numDist_; ++d)
        pairTable_[(static_cast<std::size_t>(a) * kNumElements + b) * numDist_ + d] =
            potential.pair(static_cast<Species>(a), static_cast<Species>(b),
                           net.distances()[static_cast<std::size_t>(d)]);
  for (int b = 0; b < kNumElements; ++b)
    for (int d = 0; d < numDist_; ++d)
      densityTable_[static_cast<std::size_t>(b) * numDist_ + d] =
          potential.density(static_cast<Species>(b),
                            net.distances()[static_cast<std::size_t>(d)]);
}

void EamEnergyModel::atomEnergies(std::span<Vet* const> vets, int numFinal,
                                  double* out) {
  for (const Vet* vet : vets)
    for (int s = 0; s <= numFinal; ++s)
      for (const int site : rows().sites(s)) *out++ = siteEnergy(*vet, s, site);
}

double EamEnergyModel::siteEnergy(const Vet& vet, int state, int site) const {
  const Species self = stateSpecies(vet, state, site);
  if (self == Species::kVacancy) return 0.0;  // masked by the reduction
  double pairSum = 0.0;
  double density = 0.0;
  for (const Net::Entry& e : net_.neighbors(site)) {
    const Species nb = stateSpecies(vet, state, e.siteId);
    if (nb == Species::kVacancy) continue;
    pairSum += pairTable_[(static_cast<std::size_t>(static_cast<int>(self)) *
                               kNumElements +
                           static_cast<int>(nb)) *
                              numDist_ +
                          e.distIndex];
    density += densityTable_[static_cast<std::size_t>(static_cast<int>(nb)) *
                                 numDist_ +
                             e.distIndex];
  }
  return 0.5 * pairSum + potential_.embedding(self, density);
}

}  // namespace tkmc
