#include "tabulation/row_plan.hpp"

#include <numeric>

namespace tkmc {

RowPlan RowPlan::full(const Net& net) { return RowPlan(net, false); }

RowPlan RowPlan::hopLocal(const Net& net) { return RowPlan(net, true); }

RowPlan::RowPlan(const Net& net, bool hopLocal) {
  const std::size_t nRegion = static_cast<std::size_t>(net.regionSites());
  std::vector<int> region(nRegion);
  std::iota(region.begin(), region.end(), 0);
  offsets_.push_back(0);
  energyRows_.resize((kNumJumpDirections + 1) * nRegion);
  for (int state = 0; state <= kNumJumpDirections; ++state) {
    const std::span<const int> own =
        hopLocal && state > 0 ? net.affectedSites(state - 1)
                              : std::span<const int>(region);
    std::uint32_t* rowOf =
        energyRows_.data() + static_cast<std::size_t>(state) * nRegion;
    std::iota(rowOf, rowOf + nRegion, 0u);
    for (const int site : own) {
      rowOf[site] = static_cast<std::uint32_t>(sites_.size());
      sites_.push_back(site);
    }
    offsets_.push_back(sites_.size());
  }
}

void RowPlan::reduce(const Vet& vet, int numFinal, const double* atomE,
                     double* energies) const {
  const int nRegion = regionSites();
  for (int s = 0; s <= numFinal; ++s) {
    const std::uint32_t* rowOf =
        energyRows_.data() + static_cast<std::size_t>(s * nRegion);
    double total = 0.0;
    for (int site = 0; site < nRegion; ++site) {
      if (stateSpecies(vet, s, site) == Species::kVacancy) continue;
      total += atomE[rowOf[site]];
    }
    energies[s] = total;
  }
}

}  // namespace tkmc
