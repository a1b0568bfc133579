#include "kmc/direct_energy_model.hpp"

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "lattice/bcc_lattice.hpp"
#include "tabulation/net.hpp"

namespace tkmc {

FeatureTable DirectEnergyModel::makeTable(double latticeConstant,
                                          double cutoff) {
  // Same unique-distance enumeration the NET uses, derived independently.
  const BccLattice geometry(4, 4, 4, latticeConstant);
  std::map<std::int64_t, int> norms;
  for (const Vec3i& d : geometry.offsetsWithinCutoff(cutoff))
    norms.emplace(d.norm2(), 0);
  std::vector<double> distances;
  distances.reserve(norms.size());
  for (auto& [n2, idx] : norms) {
    idx = static_cast<int>(distances.size());
    distances.push_back(std::sqrt(static_cast<double>(n2)) * latticeConstant / 2);
  }
  return FeatureTable(distances, standardPqSets());
}

DirectEnergyModel::DirectEnergyModel(double latticeConstant, double cutoff,
                                     const Network& network)
    : table_(makeTable(latticeConstant, cutoff)), network_(network) {
  require(network.inputDim() == table_.numPq() * kNumElements,
          "network input dimension must match the descriptor");
  const Cet cet(latticeConstant, cutoff);
  regionSites_.assign(cet.sites().begin(),
                      cet.sites().begin() + cet.nRegion());
  const BccLattice geometry(4, 4, 4, latticeConstant);
  offsets_ = geometry.offsetsWithinCutoff(cutoff);
  std::map<std::int64_t, int> norms;
  for (const Vec3i& d : offsets_) norms.emplace(d.norm2(), 0);
  int next = 0;
  for (auto& [n2, idx] : norms) idx = next++;
  offsetDistIndex_.reserve(offsets_.size());
  for (const Vec3i& d : offsets_) offsetDistIndex_.push_back(norms.at(d.norm2()));
}

std::vector<double> DirectEnergyModel::stateEnergies(const LatticeState& state,
                                                     Vec3i center,
                                                     int numFinal) {
  require(state.speciesAt(center) == Species::kVacancy,
          "direct evaluation must be centred on a vacancy");
  const int nRegion = static_cast<int>(regionSites_.size());
  const int numPq = table_.numPq();
  const int d = numPq * kNumElements;
  const int numStates = 1 + numFinal;
  const auto& jumps = BccLattice::firstNeighborOffsets();

  featureBuffer_.assign(static_cast<std::size_t>(numStates) * nRegion * d, 0.0);
  for (int s = 0; s < numStates; ++s) {
    // Hop overlay: in state s > 0 the vacancy has moved to jump target
    // s - 1; the two affected absolute coordinates swap species.
    const Vec3i targetAbs =
        s > 0 ? center + jumps[static_cast<std::size_t>(s - 1)] : center;
    auto overlaySpecies = [&](Vec3i p) {
      if (s > 0) {
        const Vec3i pw = state.lattice().wrap(p);
        if (pw == state.lattice().wrap(center))
          return state.speciesAt(targetAbs);
        if (pw == state.lattice().wrap(targetAbs)) return Species::kVacancy;
      }
      return state.speciesAt(p);
    };
    for (int site = 0; site < nRegion; ++site) {
      const Vec3i abs = center + regionSites_[static_cast<std::size_t>(site)];
      double* f = featureBuffer_.data() +
                  (static_cast<std::size_t>(s) * nRegion + site) * d;
      for (std::size_t o = 0; o < offsets_.size(); ++o) {
        const Species sp = overlaySpecies(abs + offsets_[o]);
        if (sp == Species::kVacancy) continue;
        const double* row = table_.row(offsetDistIndex_[o]);
        double* block = f + static_cast<int>(sp) * numPq;
        for (int k = 0; k < numPq; ++k) block[k] += row[k];
      }
    }
  }

  // One scalar row-major forward per row (atomEnergy), not the blocked
  // forwardBatch kernel that the fast backends run: the oracle shares no
  // shortcut with what it checks.
  energyBuffer_.resize(static_cast<std::size_t>(numStates) * nRegion);
  for (std::size_t row = 0; row < energyBuffer_.size(); ++row)
    energyBuffer_[row] = network_.atomEnergy(
        {featureBuffer_.data() + row * static_cast<std::size_t>(d),
         static_cast<std::size_t>(d)});
  std::vector<double> energies(static_cast<std::size_t>(numStates), 0.0);
  for (int s = 0; s < numStates; ++s) {
    const Vec3i vacancyAbs =
        s > 0 ? center + jumps[static_cast<std::size_t>(s - 1)] : center;
    double total = 0.0;
    for (int site = 0; site < nRegion; ++site) {
      const Vec3i abs = center + regionSites_[static_cast<std::size_t>(site)];
      // Masked sites: the state's vacancy location and any other vacancy.
      Species sp = state.speciesAt(abs);
      if (s > 0) {
        if (state.lattice().wrap(abs) == state.lattice().wrap(center))
          sp = state.speciesAt(vacancyAbs);
        else if (state.lattice().wrap(abs) == state.lattice().wrap(vacancyAbs))
          sp = Species::kVacancy;
      }
      if (sp == Species::kVacancy) continue;
      total += energyBuffer_[static_cast<std::size_t>(s) * nRegion + site];
    }
    energies[static_cast<std::size_t>(s)] = total;
  }
  return energies;
}

}  // namespace tkmc
