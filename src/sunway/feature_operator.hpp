#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sunway/cpe_grid.hpp"
#include "tabulation/feature_table.hpp"
#include "tabulation/net.hpp"
#include "tabulation/row_plan.hpp"
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
/// Which (state, site) rows it evaluates is a RowPlan fixed at
/// construction. The default, RowPlan::full(), is every site of every
/// state: the operator of the paper's Fig. 9-13, whose counts those
/// benches reproduce. SunwayEnergyModel passes RowPlan::hopLocal(), so
/// a final state only evaluates the sites its hop changes; a CPE then
/// computes, per state, the rows of its own sites that the plan lists.
/// Each row is computed by the same kernel whichever plan selects it.
///
/// Per (state, site) row the kernel splits the NET entries by the
/// species they see (NET order kept, vacancies skipped) and sums each
/// species block's TABLE rows in registers from 0.0f, storing the block
/// once. That is the same float summation order as accumulating entry
/// by entry into a zeroed block, so features are bit-identical to it.
class FeatureOperator {
 public:
  /// Evaluates every row of every state (RowPlan::full()).
  FeatureOperator(const Net& net, const FeatureTable& table, CpeGrid& grid);

  /// Evaluates the rows `rows` lists.
  FeatureOperator(const Net& net, const FeatureTable& table, CpeGrid& grid,
                  RowPlan rows);

  int dim() const { return table_.numPq() * kNumElements; }
  int regionSites() const { return net_.regionSites(); }
  const RowPlan& rows() const { return rows_; }

  /// Computes features for 1 + numFinal states. Output layout is
  /// [row][dim()] row-major floats (resized as needed) in rows()'
  /// order: [state][regionSite][dim()] under the full plan. Traffic is
  /// accumulated on the grid's CPE counters.
  void compute(const Vet& vet, int numFinal, std::vector<float>& out) const;

  /// Batched variant: features for every vacancy system of `vets` in one
  /// CpeGrid dispatch. The feature TABLE and this CPE's packed NET rows
  /// are DMA'd into LDM once and stay resident while the kernel walks
  /// the whole batch; only the (small) VET copy is re-fetched per
  /// system, so the dominant weight movement is amortized over the
  /// batch. Output layout is [system][row][dim()] with
  /// rows().systemRows(numFinal) rows per system — the concatenated
  /// feature matrix BigFusionOperator::forward consumes directly with
  /// m = vets.size() * rows().systemRows(numFinal). Per-system results
  /// are bit-identical to compute() on each VET.
  void computeBatch(std::span<const Vet* const> vets, int numFinal,
                    std::vector<float>& out) const;

  /// Per-CPE LDM bytes the batched kernel needs for `numStates` states
  /// over VETs of `vetSites` sites: resident TABLE + NET rows + one VET
  /// copy + one system's feature block (the most rows any one CPE owns
  /// over those states), each rounded up to the allocator's 64-byte
  /// alignment. Constant in the batch size by design (that is the point
  /// of LDM residency); computeBatch() refuses to dispatch when this
  /// exceeds the grid's ldmBytes.
  std::size_t batchWorkingSetBytes(int numStates, int vetSites) const;

 private:
  // Packed NET entry: neighbour id (fits 16 bits for standard cutoffs)
  // and distance index. Mirrors the LDM-resident encoding.
  struct PackedEntry {
    std::uint16_t siteId;
    std::uint16_t distIndex;
  };

  // One feature row a CPE computes: its local site index and the row's
  // position among its system's rows.
  struct PlannedRow {
    std::uint32_t localSite;
    std::uint32_t systemRow;
  };

  // One CPE's share of the region under the circular site assignment:
  // the packed NET rows of its sites back to back, exactly as they sit
  // in that CPE's LDM (local site i's entries are entries[rowOffsets[i]
  // .. rowOffsets[i + 1])), and the feature rows it computes,
  // state-major (state s's are rows[stateRows[s] .. stateRows[s + 1])).
  // Built once; the grid's shape and the row plan are fixed.
  struct CpePlan {
    std::vector<std::size_t> rowOffsets;
    std::vector<PackedEntry> entries;
    std::vector<PlannedRow> rows;
    std::vector<std::size_t> stateRows;
  };

  const Net& net_;
  const FeatureTable& table_;
  CpeGrid& grid_;
  RowPlan rows_;
  // Main-memory images the CPEs DMA from: per-CPE packed NET rows and
  // the float TABLE.
  std::vector<CpePlan> plans_;
  std::vector<float> tableF32_;
  // Largest per-CPE entry count and single NET row, and per state count
  // the largest number of rows one CPE computes (these can peak on
  // different CPEs).
  std::size_t maxPlanEntries_ = 0;
  std::size_t maxRowEntries_ = 0;
  std::vector<std::size_t> maxPlanRows_;  // indexed by numStates
};

}  // namespace tkmc
