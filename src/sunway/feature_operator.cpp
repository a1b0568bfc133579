#include "sunway/feature_operator.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/telemetry/tracer.hpp"
#include "common/simd.hpp"
#include "tabulation/cet.hpp"

namespace tkmc {

namespace {

// The LDM bump allocator hands out 64-byte-aligned blocks; working-set
// estimates must round each allocation the same way or a kernel could
// pass the check and still overflow the arena.
std::size_t alignUp64(std::size_t bytes) { return (bytes + 63) & ~std::size_t{63}; }

// dst[k] = 0.0f + rows[0][k] + rows[1][k] + ... for k < width, in
// registers: 32-wide slabs (8 accumulators), then a scalar tail.
void sumRows(const float* const* rows, int n, int width, float* dst) {
  int k = 0;
  for (; k + 32 <= width; k += 32) {
    simd::Vec4f acc[8] = {};
    for (int i = 0; i < n; ++i)
      for (int v = 0; v < 8; ++v) {
        simd::Vec4f row;
        simd::load(row, rows[i] + k + 4 * v);
        acc[v] += row;
      }
    for (int v = 0; v < 8; ++v) simd::store(dst + k + 4 * v, acc[v]);
  }
  for (; k < width; ++k) {
    float acc = 0.0f;
    for (int i = 0; i < n; ++i) acc += rows[i][k];
    dst[k] = acc;
  }
}

}  // namespace

FeatureOperator::FeatureOperator(const Net& net, const FeatureTable& table,
                                 CpeGrid& grid)
    : FeatureOperator(net, table, grid, RowPlan::full(net)) {}

FeatureOperator::FeatureOperator(const Net& net, const FeatureTable& table,
                                 CpeGrid& grid, RowPlan rows)
    : net_(net), table_(table), grid_(grid), rows_(std::move(rows)) {
  require(rows_.regionSites() == net_.regionSites(),
          "row plan must cover the NET's region");
  // Region sites are dealt to CPEs circularly: site s is local site
  // s / numCpes of CPE s % numCpes. Pack each CPE's NET rows into the
  // 4-byte-per-entry LDM encoding.
  const int numCpes = grid_.size();
  plans_.resize(static_cast<std::size_t>(numCpes));
  for (int id = 0; id < numCpes; ++id) {
    CpePlan& plan = plans_[static_cast<std::size_t>(id)];
    plan.rowOffsets.push_back(0);
    for (int site = id; site < net_.regionSites(); site += numCpes) {
      const std::span<const Net::Entry> row = net_.neighbors(site);
      maxRowEntries_ = std::max(maxRowEntries_, row.size());
      for (const Net::Entry& e : row) {
        require(e.siteId >= 0 && e.siteId < 65536 && e.distIndex >= 0 &&
                    e.distIndex < 65536,
                "NET entry does not fit the packed encoding");
        plan.entries.push_back({static_cast<std::uint16_t>(e.siteId),
                                static_cast<std::uint16_t>(e.distIndex)});
      }
      plan.rowOffsets.push_back(plan.entries.size());
    }
    maxPlanEntries_ = std::max(maxPlanEntries_, plan.entries.size());
    plan.stateRows.push_back(0);
  }
  // Then list the rows each CPE computes, state by state, in site order.
  for (int state = 0; state <= kNumJumpDirections; ++state) {
    const std::span<const int> sites = rows_.sites(state);
    for (std::size_t i = 0; i < sites.size(); ++i)
      plans_[static_cast<std::size_t>(sites[i] % numCpes)].rows.push_back(
          {static_cast<std::uint32_t>(sites[i] / numCpes),
           static_cast<std::uint32_t>(rows_.stateOffset(state) + i)});
    for (CpePlan& plan : plans_) plan.stateRows.push_back(plan.rows.size());
  }
  maxPlanRows_.assign(kNumJumpDirections + 2, 0);
  for (const CpePlan& plan : plans_)
    for (std::size_t n = 0; n < maxPlanRows_.size(); ++n)
      maxPlanRows_[n] = std::max(maxPlanRows_[n], plan.stateRows[n]);
  tableF32_.resize(static_cast<std::size_t>(table_.numDistances()) * table_.numPq());
  for (int d = 0; d < table_.numDistances(); ++d)
    for (int k = 0; k < table_.numPq(); ++k)
      tableF32_[static_cast<std::size_t>(d) * table_.numPq() + k] =
          static_cast<float>(table_.value(d, k));
}

void FeatureOperator::compute(const Vet& vet, int numFinal,
                              std::vector<float>& out) const {
  TKMC_SPAN("sunway.feature_compute");
  const Vet* one = &vet;
  computeBatch({&one, 1}, numFinal, out);
}

std::size_t FeatureOperator::batchWorkingSetBytes(int numStates,
                                                  int vetSites) const {
  const std::size_t vetBytes =
      static_cast<std::size_t>(vetSites) * sizeof(Species);
  return alignUp64(tableF32_.size() * sizeof(float)) + alignUp64(vetBytes) +
         alignUp64(maxPlanEntries_ * sizeof(PackedEntry)) +
         alignUp64(maxPlanRows_[static_cast<std::size_t>(numStates)] *
                   static_cast<std::size_t>(dim()) * sizeof(float));
}

void FeatureOperator::computeBatch(std::span<const Vet* const> vets,
                                   int numFinal,
                                   std::vector<float>& out) const {
  TKMC_SPAN("sunway.feature_batch");
  require(numFinal >= 0 && numFinal <= kNumJumpDirections,
          "invalid number of final states");
  const int d = dim();
  const int numPq = table_.numPq();
  const int numStates = 1 + numFinal;
  const int numSystems = static_cast<int>(vets.size());
  const std::size_t systemStride =
      rows_.systemRows(numFinal) * static_cast<std::size_t>(d);
  // No zero-fill: the dmaPuts below write every row.
  out.resize(systemStride * static_cast<std::size_t>(numSystems));
  if (numSystems == 0) return;
  const int nAll = vets[0]->size();
  for (const Vet* vet : vets)
    require(vet != nullptr && vet->size() == nAll,
            "every VET of a batch must come from the same CET");

  const std::size_t working = batchWorkingSetBytes(numStates, nAll);
  if (working > grid_.spec().ldmBytes)
    throw Error("batched feature working set (" + std::to_string(working) +
                " bytes: TABLE + NET rows + VET + one system's features) "
                "exceeds LDM capacity (" +
                std::to_string(grid_.spec().ldmBytes) +
                " bytes); reduce the table resolution, cutoff, or state count");

  grid_.run([&](CpeContext& cpe) {
    const CpePlan& plan = plans_[static_cast<std::size_t>(cpe.id())];
    const std::size_t numRows =
        plan.stateRows[static_cast<std::size_t>(numStates)];
    if (numRows == 0) return;
    Ldm& ldm = cpe.ldm();

    // Batch-resident LDM: feature TABLE and this CPE's NET rows are
    // fetched once and reused for every system of the batch; the VET
    // copy and the per-system feature block are overwritten per system.
    auto tableLdm = ldm.alloc<float>(tableF32_.size());
    cpe.dmaGet(tableLdm.data(), tableF32_.data(),
               tableF32_.size() * sizeof(float));
    auto netLdm = ldm.alloc<PackedEntry>(plan.entries.size());
    cpe.dmaGet(netLdm.data(), plan.entries.data(),
               plan.entries.size() * sizeof(PackedEntry));
    auto vetLdm = ldm.alloc<Species>(static_cast<std::size_t>(nAll));
    auto featLdm = ldm.alloc<float>(numRows * static_cast<std::size_t>(d));
    // TABLE rows of one NET row, split by the species each entry sees:
    // species sp's list starts at sp * maxRowEntries_.
    std::vector<const float*> speciesRows(kNumElements * maxRowEntries_);

    for (int sys = 0; sys < numSystems; ++sys) {
      cpe.dmaGet(vetLdm.data(), vets[sys]->data().data(),
                 static_cast<std::size_t>(nAll) * sizeof(Species));

      for (int state = 0; state < numStates; ++state) {
        // Simulate the hop for final state k by swapping the LDM VET copy.
        if (state > 0) {
          const int target = Cet::jumpTargetId(state - 1);
          std::swap(vetLdm[0], vetLdm[static_cast<std::size_t>(target)]);
        }
        for (std::size_t r = plan.stateRows[static_cast<std::size_t>(state)];
             r < plan.stateRows[static_cast<std::size_t>(state) + 1]; ++r) {
          const std::size_t si = plan.rows[r].localSite;
          int counts[kNumElements] = {};
          for (std::size_t e = plan.rowOffsets[si]; e < plan.rowOffsets[si + 1];
               ++e) {
            const PackedEntry entry = netLdm[e];
            const Species sp = vetLdm[entry.siteId];
            if (sp == Species::kVacancy) continue;
            const int spi = static_cast<int>(sp);
            speciesRows[static_cast<std::size_t>(spi) * maxRowEntries_ +
                        static_cast<std::size_t>(counts[spi]++)] =
                tableLdm.data() +
                static_cast<std::size_t>(entry.distIndex) * numPq;
          }
          float* f = featLdm.data() + r * static_cast<std::size_t>(d);
          std::uint64_t accumulated = 0;
          for (int spi = 0; spi < kNumElements; ++spi) {
            sumRows(speciesRows.data() +
                        static_cast<std::size_t>(spi) * maxRowEntries_,
                    counts[spi], numPq, f + spi * numPq);
            accumulated += static_cast<std::uint64_t>(counts[spi]);
          }
          // Only entries that actually accumulated count as work;
          // vacancy-skipped entries do no arithmetic.
          cpe.traffic().flops +=
              accumulated * static_cast<std::uint64_t>(numPq);
        }
        // Undo the swap so every state starts from the initial VET.
        if (state > 0) {
          const int target = Cet::jumpTargetId(state - 1);
          std::swap(vetLdm[0], vetLdm[static_cast<std::size_t>(target)]);
        }
      }

      // One DMA put of everything generated for this system (paper:
      // features kept in LDM until all states are done).
      for (std::size_t r = 0; r < numRows; ++r) {
        float* dst = out.data() +
                     static_cast<std::size_t>(sys) * systemStride +
                     static_cast<std::size_t>(plan.rows[r].systemRow) * d;
        const float* src = featLdm.data() + r * static_cast<std::size_t>(d);
        cpe.dmaPut(dst, src, static_cast<std::size_t>(d) * sizeof(float));
      }
    }
  });
}

}  // namespace tkmc
