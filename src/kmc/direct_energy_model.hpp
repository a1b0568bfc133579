#pragma once

#include <vector>

#include "kmc/energy_model.hpp"
#include "nnp/network.hpp"
#include "tabulation/cet.hpp"
#include "tabulation/feature_table.hpp"

namespace tkmc {

/// Reference NNP backend *without* the triple-encoding machinery.
///
/// Every energy evaluation walks the global lattice array directly:
/// region sites are enumerated geometrically, every neighbour species is
/// read from the LatticeState (with the candidate hop applied as an
/// overlay), and descriptor terms come from the same precomputed table.
/// This is the OpenKMC-style evaluation path of the Fig. 8 validation:
/// trajectories must match the TET + vacancy-cache engine bit for bit.
///
/// Deliberately shares no CET/NET/VET instances with the fast path; it
/// derives its geometry from scratch in the constructor, and runs the
/// network one row at a time through the scalar Network::atomEnergy(),
/// not the blocked forwardBatch() kernel the fast backends use.
class DirectEnergyModel : public EnergyModel {
 public:
  DirectEnergyModel(double latticeConstant, double cutoff,
                    const Network& network);

  std::vector<double> stateEnergies(const LatticeState& state, Vec3i center,
                                    int numFinal) override;

  const char* name() const override { return "nnp-direct"; }

 private:
  // Region site relative coordinates in canonical order and the
  // neighbour offsets with distance indices, rebuilt from geometry.
  std::vector<Vec3i> regionSites_;
  std::vector<Vec3i> offsets_;
  std::vector<int> offsetDistIndex_;
  FeatureTable table_;
  const Network& network_;
  std::vector<double> featureBuffer_;
  std::vector<double> energyBuffer_;

  static FeatureTable makeTable(double latticeConstant, double cutoff);
};

}  // namespace tkmc
