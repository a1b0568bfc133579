#pragma once

#include <vector>

#include "eam/eam_potential.hpp"
#include "kmc/tet_energy_model.hpp"

namespace tkmc {

/// EAM energy backend on the triple-encoding tables: the embedded-atom
/// potential OpenKMC uses (Eq. 7), as a site kernel behind the TET
/// driver. A site's 0.5 * sum(phi) + F(rho) reads only its own NET row,
/// so a final state evaluates just the sites its hop changes. Cheap
/// enough for dense test sweeps, and the backend behind the
/// OpenKMC-baseline comparisons.
class EamEnergyModel final : public TetEnergyModel {
 public:
  EamEnergyModel(const Cet& cet, const Net& net, const EamPotential& potential);

  // The kernel only reads the pair/density tables built in the
  // constructor, and the driver's scratch is local to each call, so rank
  // threads may batch through this backend concurrently.
  bool concurrentDispatchSafe() const override { return true; }

  const char* name() const override { return "eam-tet"; }

 private:
  void atomEnergies(std::span<Vet* const> vets, int numFinal,
                    double* out) override;
  double siteEnergy(const Vet& vet, int state, int site) const;

  const Net& net_;
  const EamPotential& potential_;
  // Pair/density tables over (species pair, distance index) — the EAM
  // analogue of the feature TABLE; distances are discrete on the lattice.
  std::vector<double> pairTable_;     // [a][b][dist]
  std::vector<double> densityTable_;  // [b][dist]
  int numDist_;
};

}  // namespace tkmc
