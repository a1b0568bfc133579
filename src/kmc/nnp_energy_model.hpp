#pragma once

#include <vector>

#include "kmc/energy_model.hpp"
#include "nnp/network.hpp"
#include "tabulation/cet.hpp"
#include "tabulation/net.hpp"
#include "tabulation/region_features.hpp"
#include "tabulation/row_plan.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

/// The TensorKMC energy backend: triple-encoding tabulation feeding the
/// neural network potential.
///
/// Per call: one VET gather (the only access to the big lattice array),
/// tabulated features (Eq. 6) for the rows of RowPlan::hopLocal() —
/// every region site of the initial state and only the
/// Net::affectedSites() of each final state — one network forward over
/// those rows, and RowPlan::reduce()'s per-state sums over the jumping
/// region with vacancy sites masked out. A final state's unaffected
/// sites reuse the initial state's atomic energies: their features are
/// bitwise the same, so every state energy is bit-identical to a full
/// recompute.
class NnpEnergyModel : public EnergyModel {
 public:
  /// All references must outlive the model.
  NnpEnergyModel(const Cet& cet, const Net& net, const FeatureTable& table,
                 const Network& network);

  std::vector<double> stateEnergies(const LatticeState& state, Vec3i center,
                                    int numFinal) override;

  /// Energy evaluation from an already-gathered VET (used by engines that
  /// maintain VETs incrementally through the vacancy cache).
  std::vector<double> stateEnergiesFromVet(Vet& vet, int numFinal) override;

  /// Batched evaluation: the rows of every system are concatenated and
  /// put through one network forward. forwardBatch() is row-independent
  /// and the reductions run in the same order, so results are
  /// bit-identical to per-system calls. stateEnergiesFromVet() is this
  /// routine on one system.
  std::vector<std::vector<double>> stateEnergiesBatch(
      std::span<Vet* const> vets, int numFinal) override;

  bool supportsVet() const override { return true; }

  const char* name() const override { return "nnp-tet"; }

  const Cet& cet() const { return cet_; }

 private:
  const Cet& cet_;
  const Network& network_;
  RegionFeatures features_;
  RowPlan rows_;
  // Scratch reused across calls.
  std::vector<double> featureBuffer_;
  std::vector<double> energyBuffer_;
};

}  // namespace tkmc
