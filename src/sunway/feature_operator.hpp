#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sunway/cpe_grid.hpp"
#include "tabulation/feature_table.hpp"
#include "tabulation/net.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

/// Fast feature operator (paper Sec. 3.4) on the simulated CPE cluster.
///
/// Region sites are assigned to CPEs circularly. Each CPE keeps a packed
/// copy of its NET rows, the whole VET, and the precomputed feature TABLE
/// in LDM, then evaluates the tabulated descriptor for the initial state
/// and every final state (vacancy swap VET[0] <-> VET[1+k]) before a
/// single DMA put of all generated features. Single precision, matching
/// the CPE vector units.
///
/// Per (state, site) row the kernel splits the NET entries by the
/// species they see (NET order kept, vacancies skipped) and sums each
/// species block's TABLE rows in registers from 0.0f, storing the block
/// once. That is the same float summation order as accumulating entry
/// by entry into a zeroed block, so features are bit-identical to it.
class FeatureOperator {
 public:
  FeatureOperator(const Net& net, const FeatureTable& table, CpeGrid& grid);

  int dim() const { return table_.numPq() * kNumElements; }
  int regionSites() const { return net_.regionSites(); }

  /// Computes features for 1 + numFinal states. Output layout is
  /// [state][regionSite][dim()] row-major floats (resized as needed).
  /// Traffic is accumulated on the grid's CPE counters.
  void compute(const Vet& vet, int numFinal, std::vector<float>& out) const;

  /// Batched variant: features for every vacancy system of `vets` in one
  /// CpeGrid dispatch. The feature TABLE and this CPE's packed NET rows
  /// are DMA'd into LDM once and stay resident while the kernel walks
  /// the whole batch; only the (small) VET copy is re-fetched per
  /// system, so the dominant weight movement is amortized over the
  /// batch. Output layout is [system][state][regionSite][dim()] — the
  /// concatenated feature matrix BigFusionOperator::forward consumes
  /// directly with m = vets.size() * (1 + numFinal) * regionSites().
  /// Per-system results are bit-identical to compute() on each VET.
  void computeBatch(std::span<const Vet* const> vets, int numFinal,
                    std::vector<float>& out) const;

  /// Per-CPE LDM bytes the batched kernel needs for `numStates` states
  /// over VETs of `vetSites` sites: resident TABLE + NET rows + one VET
  /// copy + one system's feature block, each rounded up to the
  /// allocator's 64-byte alignment. Constant in the batch size by design
  /// (that is the point of LDM residency); computeBatch() refuses to
  /// dispatch when this exceeds the grid's ldmBytes.
  std::size_t batchWorkingSetBytes(int numStates, int vetSites) const;

 private:
  // Packed NET entry: neighbour id (fits 16 bits for standard cutoffs)
  // and distance index. Mirrors the LDM-resident encoding.
  struct PackedEntry {
    std::uint16_t siteId;
    std::uint16_t distIndex;
  };

  // One CPE's share of the region under the circular site assignment:
  // its sites and their packed NET rows back to back, exactly as the
  // rows sit in that CPE's LDM (rowOffsets has sites.size() + 1 prefix
  // offsets into entries). Built once; the grid's shape is fixed.
  struct CpePlan {
    std::vector<int> sites;
    std::vector<std::size_t> rowOffsets;
    std::vector<PackedEntry> entries;
  };

  const Net& net_;
  const FeatureTable& table_;
  CpeGrid& grid_;
  // Main-memory images the CPEs DMA from: per-CPE packed NET rows and
  // the float TABLE.
  std::vector<CpePlan> plans_;
  std::vector<float> tableF32_;
  // Largest per-CPE site count, per-CPE entry count and single NET row
  // (the first two can peak on different CPEs).
  std::size_t maxPlanSites_ = 0;
  std::size_t maxPlanEntries_ = 0;
  std::size_t maxRowEntries_ = 0;
};

}  // namespace tkmc
