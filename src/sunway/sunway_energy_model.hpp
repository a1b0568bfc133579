#pragma once

#include <memory>
#include <vector>

#include "kmc/tet_energy_model.hpp"
#include "nnp/network.hpp"
#include "sunway/bigfusion_operator.hpp"
#include "sunway/feature_operator.hpp"

namespace tkmc {

/// The production TensorKMC energy backend: triple-encoding tables feeding
/// the fast feature operator and the big-fusion operator on the simulated
/// SW26010-pro core group, in single precision (the paper's Sec. 3.4-3.5
/// pipeline, end to end), as a site kernel behind the TET driver.
///
/// The operators are fed only the rows of RowPlan::hopLocal(): every
/// region site of the initial state, then Net::affectedSites(k) for each
/// final state (235 of 531 rows per system at 4.0 A). The kernel widens
/// the float atomic energies to double, which is exact, and the driver's
/// RowPlan::reduce() sums them in site order. An unaffected row's
/// features are bitwise the initial state's and detail::denseTile is
/// row-independent, so every energy is bitwise what the full-row
/// pipeline gives. The operator-level figure benches (Fig. 9-13) keep
/// FeatureOperator's full row plan: their DMA, RMA and flop counts are
/// the reproduced quantities.
///
/// Numerically this is the float counterpart of NnpEnergyModel: same
/// tables, same network (via the folded snapshot), so per-state energies
/// agree to single-precision accumulation error. Trajectories driven by
/// this backend are therefore statistically — not bitwise — equivalent to
/// the double-precision path, exactly as on the real machine.
class SunwayEnergyModel final : public TetEnergyModel {
 public:
  SunwayEnergyModel(const Cet& cet, const Net& net, const FeatureTable& table,
                    const Network& network, int mBlock = 32);

  const char* name() const override { return "nnp-tet-sunway"; }

  /// Accumulated operator traffic since the last call (diagnostics).
  Traffic collectTraffic() { return grid_.collectTraffic(); }

  /// Modeled SW26010 elapsed time of every dispatch since the last call
  /// (launch latency + per-run critical path; see CpeGrid). This is the
  /// cost benches report — host wall-clock of the functional simulator
  /// does not express launch amortization or mesh occupancy.
  double collectModeledSeconds() { return grid_.collectModeledSeconds(); }

  const CpeGrid& grid() const { return grid_; }

  /// One-time model distribution cost (charged at construction).
  const Traffic& modelLoadTraffic() const { return loadTraffic_; }

 private:
  /// One feature dispatch with the TABLE and packed NET LDM-resident
  /// across all systems, then one big-fusion forward over the
  /// concatenated hop-local feature matrix (tile count scales with the
  /// batch, keeping all CPE columns busy). While telemetry is enabled,
  /// records the batch-size histogram and per-dispatch traffic
  /// (sunway.batch.*, sunway.dispatch.*).
  void atomEnergies(std::span<Vet* const> vets, int numFinal,
                    double* out) override;

  CpeGrid grid_;
  FeatureOperator features_;
  BigFusionOperator fusion_;
  Traffic loadTraffic_;
  std::vector<float> featureBuffer_;
  std::vector<float> energyBuffer_;
  std::vector<const Vet*> vetPtrScratch_;  // reused per dispatch
};

}  // namespace tkmc
