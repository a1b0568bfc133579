#pragma once

#include <vector>

#include "kmc/tet_energy_model.hpp"
#include "nnp/network.hpp"
#include "tabulation/region_features.hpp"

namespace tkmc {

/// The TensorKMC energy backend: triple-encoding tabulation feeding the
/// neural network potential, as a site kernel behind the TET driver.
///
/// The kernel computes the tabulated features (Eq. 6) of every row of
/// the batch — each system's region sites in the initial state, then
/// only the Net::affectedSites() of each final state, on the swapped
/// VET — and puts them through one Network::forwardBatch(). An
/// unaffected site's features are bitwise the initial state's and
/// forwardBatch() is row-independent, so every state energy is
/// bit-identical to a full recompute (DESIGN §18).
class NnpEnergyModel final : public TetEnergyModel {
 public:
  /// All references must outlive the model.
  NnpEnergyModel(const Cet& cet, const Net& net, const FeatureTable& table,
                 const Network& network);

  const char* name() const override { return "nnp-tet"; }

 private:
  void atomEnergies(std::span<Vet* const> vets, int numFinal,
                    double* out) override;

  const Network& network_;
  RegionFeatures features_;
  std::vector<double> featureBuffer_;  // reused across calls
};

}  // namespace tkmc
