#include "kmc/bond_counting_model.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tkmc {
namespace {

int pairSlot(Species a, Species b) {
  return static_cast<int>(a) + static_cast<int>(b);  // FeFe=0 FeCu=1 CuCu=2
}

}  // namespace

BondCountingModel::BondCountingModel(const Cet& cet, const Net& net,
                                     Parameters params)
    : TetEnergyModel(cet, net), net_(net), params_(params) {
  // Identify the 1NN and 2NN shells among the NET's discrete distances.
  const double a = cet.latticeConstant();
  const double d1 = a * std::sqrt(3.0) / 2.0;
  for (std::size_t i = 0; i < net.distances().size(); ++i) {
    if (std::abs(net.distances()[i] - d1) < 1e-9)
      firstShellIndex_ = static_cast<int>(i);
    if (std::abs(net.distances()[i] - a) < 1e-9)
      secondShellIndex_ = static_cast<int>(i);
  }
  require(firstShellIndex_ >= 0 && secondShellIndex_ >= 0,
          "bond counting needs a cutoff covering 1NN and 2NN shells");
}

double BondCountingModel::bondEnergy(int distIndex, Species a, Species b) const {
  if (distIndex == firstShellIndex_)
    return params_.eps1[static_cast<std::size_t>(pairSlot(a, b))];
  if (distIndex == secondShellIndex_)
    return params_.eps2[static_cast<std::size_t>(pairSlot(a, b))];
  return 0.0;  // bonds beyond 2NN carry no energy in this model
}

void BondCountingModel::atomEnergies(std::span<Vet* const> vets, int numFinal,
                                     double* out) {
  for (const Vet* vet : vets)
    for (int s = 0; s <= numFinal; ++s)
      for (const int site : rows().sites(s)) *out++ = siteEnergy(*vet, s, site);
}

double BondCountingModel::siteEnergy(const Vet& vet, int state,
                                     int site) const {
  const Species self = stateSpecies(vet, state, site);
  if (self == Species::kVacancy) return 0.0;  // masked by the reduction
  double bonds = 0.0;
  for (const Net::Entry& e : net_.neighbors(site)) {
    if (e.distIndex != firstShellIndex_ && e.distIndex != secondShellIndex_)
      continue;
    const Species nb = stateSpecies(vet, state, e.siteId);
    if (nb == Species::kVacancy) continue;
    bonds += bondEnergy(e.distIndex, self, nb);
  }
  return 0.5 * bonds;
}

}  // namespace tkmc
