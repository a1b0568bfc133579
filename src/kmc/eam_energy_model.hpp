#pragma once

#include <vector>

#include "eam/eam_potential.hpp"
#include "kmc/energy_model.hpp"
#include "tabulation/cet.hpp"
#include "tabulation/net.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

/// EAM energy backend on the triple-encoding tables.
///
/// Same gather/region machinery as the NNP backend but with embedded-atom
/// energies — the potential OpenKMC uses. Cheap enough for dense test
/// sweeps, and the backend behind the OpenKMC-baseline comparisons.
class EamEnergyModel : public EnergyModel {
 public:
  EamEnergyModel(const Cet& cet, const Net& net, const EamPotential& potential);

  std::vector<double> stateEnergies(const LatticeState& state, Vec3i center,
                                    int numFinal) override;

  std::vector<double> stateEnergiesFromVet(Vet& vet, int numFinal) override;

  bool supportsVet() const override { return true; }

  // Evaluation only reads the pair/density tables built in the
  // constructor; no mutable scratch, so rank threads may batch through
  // this backend concurrently.
  bool concurrentDispatchSafe() const override { return true; }

  const char* name() const override { return "eam-tet"; }

 private:
  double regionEnergy(const Vet& vet, int state) const;

  const Cet& cet_;
  const Net& net_;
  const EamPotential& potential_;
  // Pair/density tables over (species pair, distance index) — the EAM
  // analogue of the feature TABLE; distances are discrete on the lattice.
  std::vector<double> pairTable_;     // [a][b][dist]
  std::vector<double> densityTable_;  // [b][dist]
  int numDist_;
};

}  // namespace tkmc
