#pragma once

#include <cstddef>
#include <cstdint>
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
/// In front of the operators sits a row memo (DESIGN §24): a row's
/// float atomic energy is a pure function of its NET-row pattern (the
/// row's distance-index sequence and the species its neighbours hold in
/// NET order), and a dilute alloy repeats a few thousand patterns. A
/// system whose rows all hit takes its energies from the memo; every
/// system with a miss goes through the operators in one dispatch. The
/// model copies its weights and its float TABLE at construction, so a
/// hit is bitwise the energy the operators gave that pattern.
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

  /// Row lookups and table clears of the memo since construction.
  struct MemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  const MemoStats& memoStats() const { return memoStats_; }

 private:
  /// Looks every row up in the memo. The systems with a miss go through
  /// one feature dispatch with the TABLE and packed NET LDM-resident
  /// across them, then one big-fusion forward over the concatenated
  /// hop-local feature matrix (tile count scales with the batch, keeping
  /// all CPE columns busy), and their rows are inserted. While telemetry
  /// is enabled, counts the memo's row hits, misses and clears
  /// (energy.memo.*) and records the dispatched batch-size histogram and
  /// per-dispatch traffic (sunway.batch.*, sunway.dispatch.*).
  void atomEnergies(std::span<Vet* const> vets, int numFinal,
                    double* out) override;

  /// Writes the key of every row of `vet`'s system to rowKeys_: word 0
  /// holds the row's distance-sequence id + 1 in bits 0-15, then each
  /// neighbour's 2-bit species code in NET order, as the state reads
  /// them (the VET with sites 0 and the target swapped).
  void buildRowKeys(const Vet& vet, int numFinal);
  /// The slot holding `key`, or the empty slot where it belongs.
  std::size_t probe(const std::uint64_t* key) const;
  void insert(const std::uint64_t* key, float energy);
  void resizeMemo(std::size_t slots);

  CpeGrid grid_;
  FeatureOperator features_;
  BigFusionOperator fusion_;
  Traffic loadTraffic_;
  std::vector<float> featureBuffer_;
  std::vector<float> energyBuffer_;
  std::vector<const Vet*> vetPtrScratch_;  // reused per dispatch

  const Net& net_;
  // Per region site: its distance-sequence id + 1 (sites whose NET
  // distance-index sequences are equal share one).
  std::vector<std::uint16_t> rowPattern_;
  std::size_t keyWords_ = 1;  // 64-bit words per key
  // Per row of final states 1 .. kNumJumpDirections (plan layout from
  // stateOffset(1)): a bit at the base of each 2-bit field whose
  // neighbour is site 0 or the state's jump target.
  std::vector<std::uint64_t> swapMasks_;
  // Open addressing with linear probing over a power-of-two slot count:
  // slot i's key is memoKeys_[i * keyWords_ ..], empty while its word 0
  // is 0. At most half the slots are used.
  std::vector<std::uint64_t> memoKeys_;
  std::vector<float> memoEnergies_;
  int memoShift_ = 0;  // 64 - log2(slot count)
  std::size_t memoUsed_ = 0;
  MemoStats memoStats_;
  std::vector<std::uint64_t> rowKeys_;  // one system's keys, reused
  std::vector<std::size_t> missSystems_;
};

}  // namespace tkmc
