#include "tabulation/region_features.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tkmc {

RegionFeatures::RegionFeatures(const Net& net, const FeatureTable& table)
    : net_(net), table_(table) {}

// The site loop is the NNP step's hottest code after the dense kernel,
// and its speed depends on its placement in the binary: starting at 32
// mod 64 bytes, where unrelated code elsewhere can push it, it ran
// serial_nnp about 12% slower. Aligning the two entry points to 64
// bytes pins that placement (DESIGN §22, "Measured").
[[gnu::aligned(64)]] void RegionFeatures::accumulateSite(const Vet& vet,
                                                         int site,
                                                         double* f) const {
  const int numPq = table_.numPq();
  std::fill(f, f + dim(), 0.0);
  for (const Net::Entry& e : net_.neighbors(site)) {
    const Species sp = vet[e.siteId];
    if (sp == Species::kVacancy) continue;
    const double* row = table_.row(e.distIndex);
    double* block = f + static_cast<int>(sp) * numPq;
    for (int k = 0; k < numPq; ++k) block[k] += row[k];
  }
}

void RegionFeatures::compute(const Vet& vet, std::vector<double>& out) const {
  const int nRegion = net_.regionSites();
  const std::size_t d = static_cast<std::size_t>(dim());
  out.resize(static_cast<std::size_t>(nRegion) * d);
  for (int site = 0; site < nRegion; ++site)
    accumulateSite(vet, site, out.data() + static_cast<std::size_t>(site) * d);
}

[[gnu::aligned(64)]] void RegionFeatures::computeSites(
    const Vet& vet, std::span<const int> sites, double* out) const {
  const std::size_t d = static_cast<std::size_t>(dim());
  for (std::size_t i = 0; i < sites.size(); ++i)
    accumulateSite(vet, sites[i], out + i * d);
}

void RegionFeatures::computeDirect(const Vet& vet,
                                   const std::vector<double>& distances,
                                   const std::vector<PqSet>& pqSets,
                                   std::vector<double>& out) const {
  require(static_cast<int>(pqSets.size()) == table_.numPq(),
          "pq set count must match the table");
  const int nRegion = net_.regionSites();
  const int d = dim();
  const int numPq = table_.numPq();
  out.assign(static_cast<std::size_t>(nRegion) * d, 0.0);
  for (int site = 0; site < nRegion; ++site) {
    double* f = out.data() + static_cast<std::size_t>(site) * d;
    for (const Net::Entry& e : net_.neighbors(site)) {
      const Species sp = vet[e.siteId];
      if (sp == Species::kVacancy) continue;
      const double r = distances[static_cast<std::size_t>(e.distIndex)];
      double* block = f + static_cast<int>(sp) * numPq;
      for (int k = 0; k < numPq; ++k)
        block[k] += FeatureTable::term(r, pqSets[static_cast<std::size_t>(k)]);
    }
  }
}

void RegionFeatures::computeStates(Vet& vet, int numFinal,
                                   std::vector<double>& out) const {
  require(numFinal >= 0 && numFinal <= kNumJumpDirections,
          "invalid number of final states");
  const int nRegion = net_.regionSites();
  const std::size_t d = static_cast<std::size_t>(dim());
  out.resize(static_cast<std::size_t>(nRegion) * d *
             (1 + static_cast<std::size_t>(numFinal)));
  double* f = out.data();
  for (int state = 0; state <= numFinal; ++state) {
    // The initial state's swap(0, 0) leaves the VET as it is.
    const int target = state > 0 ? Cet::jumpTargetId(state - 1) : 0;
    vet.swap(0, target);
    for (int site = 0; site < nRegion; ++site, f += d)
      accumulateSite(vet, site, f);
    vet.swap(0, target);
  }
}

}  // namespace tkmc
