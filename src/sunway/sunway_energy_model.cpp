#include "sunway/sunway_energy_model.hpp"

#include <algorithm>
#include <bit>
#include <map>

#include "common/error.hpp"
#include "common/telemetry/telemetry.hpp"

namespace tkmc {

namespace {

// The memo starts at kMemoInitialSlots and doubles while it is at most
// half full; at kMemoMaxSlots it clears instead (at most 32,768
// patterns, 2.25 MiB of slots at 6.5 A, 768 KiB at 4.0 A).
constexpr std::size_t kMemoInitialSlots = 1024;
constexpr std::size_t kMemoMaxSlots = std::size_t{1} << 16;
constexpr int kPatternBits = 16;  // word 0's distance-sequence id field

// Fibonacci hashing: the slot is the top bits of key x 2^64 / phi.
constexpr std::uint64_t kGoldenRatio = 0x9e3779b97f4a7c15ull;

}  // namespace

SunwayEnergyModel::SunwayEnergyModel(const Cet& cet, const Net& net,
                                     const FeatureTable& table,
                                     const Network& network, int mBlock)
    : TetEnergyModel(cet, net), features_(net, table, grid_, rows()),
      fusion_(network.foldedSnapshot(), grid_, mBlock), net_(net) {
  require(network.inputDim() == table.numPq() * kNumElements,
          "network input dimension must match the descriptor");
  loadTraffic_ = fusion_.loadModel();

  std::map<std::vector<std::int32_t>, std::uint16_t> patterns;
  std::size_t maxRowEntries = 0;
  for (int site = 0; site < net.regionSites(); ++site) {
    std::vector<std::int32_t> distances;
    for (const Net::Entry& e : net.neighbors(site))
      distances.push_back(e.distIndex);
    maxRowEntries = std::max(maxRowEntries, distances.size());
    const auto id = static_cast<std::uint16_t>(patterns.size() + 1);
    rowPattern_.push_back(patterns.emplace(std::move(distances), id).first->second);
    require(patterns.size() < (std::size_t{1} << kPatternBits),
            "too many NET distance sequences for the row memo's key");
  }
  keyWords_ = (kPatternBits + 2 * maxRowEntries + 63) / 64;

  // A final state's rows read state 0's species with sites 0 and the
  // jump target exchanged, so their keys differ from the same sites'
  // state-0 keys only in the codes of those two neighbours.
  const std::size_t finalRows =
      rows().systemRows(kNumJumpDirections) - rows().stateOffset(1);
  swapMasks_.assign(finalRows * keyWords_, 0);
  for (int state = 1; state <= kNumJumpDirections; ++state) {
    const int target = Cet::jumpTargetId(state - 1);
    std::uint64_t* mask = swapMasks_.data() +
                          (rows().stateOffset(state) - rows().stateOffset(1)) *
                              keyWords_;
    for (const int site : rows().sites(state)) {
      std::size_t bit = kPatternBits;
      for (const Net::Entry& e : net.neighbors(site)) {
        if (e.siteId == 0 || e.siteId == target)
          mask[bit / 64] |= std::uint64_t{1} << (bit % 64);
        bit += 2;
      }
      mask += keyWords_;
    }
  }
  resizeMemo(kMemoInitialSlots);
}

void SunwayEnergyModel::buildRowKeys(const Vet& vet, int numFinal) {
  rowKeys_.resize(rows().systemRows(numFinal) * keyWords_);
  const Species* species = vet.data().data();
  // State 0's rows are every region site in id order: row `site`.
  std::uint64_t* key = rowKeys_.data();
  for (const int site : rows().sites(0)) {
    // Packed in a register: a store per code could alias `species`.
    std::uint64_t* const end = key + keyWords_;
    std::uint64_t word = rowPattern_[static_cast<std::size_t>(site)];
    unsigned shift = kPatternBits;
    for (const Net::Entry& e : net_.neighbors(site)) {
      word |= static_cast<std::uint64_t>(species[e.siteId]) << shift;
      shift += 2;
      if (shift == 64) {
        *key++ = word;
        word = 0;
        shift = 0;
      }
    }
    if (shift != 0) *key++ = word;
    std::fill(key, end, 0);
    key = end;
  }
  // Final state s swaps the codes of sites 0 and its target: each of
  // their fields in a row changes by (code 0) ^ (code target), so the
  // key is state 0's XOR that delta times the row's field mask.
  const std::uint64_t* mask = swapMasks_.data();
  for (int state = 1; state <= numFinal; ++state) {
    const std::uint64_t delta = static_cast<std::uint64_t>(
        static_cast<unsigned>(species[0]) ^
        static_cast<unsigned>(species[Cet::jumpTargetId(state - 1)]));
    for (const int site : rows().sites(state)) {
      const std::uint64_t* initial =
          rowKeys_.data() + static_cast<std::size_t>(site) * keyWords_;
      for (std::size_t w = 0; w < keyWords_; ++w)
        key[w] = initial[w] ^ (mask[w] * delta);
      key += keyWords_;
      mask += keyWords_;
    }
  }
}

std::size_t SunwayEnergyModel::probe(const std::uint64_t* key) const {
  std::uint64_t hash = 0;
  for (std::size_t w = 0; w < keyWords_; ++w)
    hash = (hash ^ key[w]) * kGoldenRatio;
  const std::size_t mask = memoEnergies_.size() - 1;
  for (std::size_t slot = hash >> memoShift_;; slot = (slot + 1) & mask) {
    const std::uint64_t* stored = memoKeys_.data() + slot * keyWords_;
    if (stored[0] == 0 || std::equal(key, key + keyWords_, stored)) return slot;
  }
}

void SunwayEnergyModel::insert(const std::uint64_t* key, float energy) {
  std::size_t slot = probe(key);
  if (memoKeys_[slot * keyWords_] != 0) return;  // a duplicate row
  if (2 * (memoUsed_ + 1) > memoEnergies_.size()) {
    if (memoEnergies_.size() < kMemoMaxSlots) {
      resizeMemo(2 * memoEnergies_.size());
    } else {
      std::fill(memoKeys_.begin(), memoKeys_.end(), 0);
      memoUsed_ = 0;
      ++memoStats_.evictions;
    }
    slot = probe(key);
  }
  std::copy(key, key + keyWords_, memoKeys_.data() + slot * keyWords_);
  memoEnergies_[slot] = energy;
  ++memoUsed_;
}

void SunwayEnergyModel::resizeMemo(std::size_t slots) {
  std::vector<std::uint64_t> keys(slots * keyWords_, 0);
  std::vector<float> energies(slots);
  keys.swap(memoKeys_);
  energies.swap(memoEnergies_);
  memoShift_ = 64 - std::countr_zero(slots);
  for (std::size_t slot = 0; slot < energies.size(); ++slot) {
    const std::uint64_t* key = keys.data() + slot * keyWords_;
    if (key[0] == 0) continue;
    const std::size_t to = probe(key);
    std::copy(key, key + keyWords_, memoKeys_.data() + to * keyWords_);
    memoEnergies_[to] = energies[slot];
  }
}

void SunwayEnergyModel::atomEnergies(std::span<Vet* const> vets,
                                     int numFinal, double* out) {
  TKMC_SPAN("sunway.batch_dispatch");
  namespace tm = telemetry;
  const bool instrumented = tm::enabled();
  const MemoStats statsBefore = memoStats_;
  const std::size_t systemRows = rows().systemRows(numFinal);

  missSystems_.clear();
  vetPtrScratch_.clear();
  for (std::size_t sys = 0; sys < vets.size(); ++sys) {
    buildRowKeys(*vets[sys], numFinal);
    std::uint64_t misses = 0;
    for (std::size_t r = 0; r < systemRows; ++r) {
      const std::size_t slot = probe(rowKeys_.data() + r * keyWords_);
      if (memoKeys_[slot * keyWords_] == 0)
        ++misses;
      else
        out[sys * systemRows + r] = memoEnergies_[slot];
    }
    memoStats_.hits += systemRows - misses;
    memoStats_.misses += misses;
    if (misses == 0) continue;
    missSystems_.push_back(sys);
    vetPtrScratch_.push_back(vets[sys]);
  }

  Traffic before;
  if (!missSystems_.empty()) {
    if (instrumented) before = grid_.peekTraffic();
    features_.computeBatch(vetPtrScratch_, numFinal, featureBuffer_);
    energyBuffer_.resize(systemRows * missSystems_.size());
    fusion_.forward(featureBuffer_.data(),
                    static_cast<int>(energyBuffer_.size()),
                    energyBuffer_.data());
    for (std::size_t i = 0; i < missSystems_.size(); ++i) {
      const float* energies = energyBuffer_.data() + i * systemRows;
      const std::size_t sys = missSystems_[i];
      std::copy(energies, energies + systemRows, out + sys * systemRows);
      buildRowKeys(*vets[sys], numFinal);
      for (std::size_t r = 0; r < systemRows; ++r)
        insert(rowKeys_.data() + r * keyWords_, energies[r]);
    }
  }

  if (instrumented) {
    tm::MetricsRegistry& reg = tm::metrics();
    reg.counter("energy.memo.hits").add(memoStats_.hits - statsBefore.hits);
    reg.counter("energy.memo.misses")
        .add(memoStats_.misses - statsBefore.misses);
    reg.counter("energy.memo.evictions")
        .add(memoStats_.evictions - statsBefore.evictions);
    if (missSystems_.empty()) return;
    const Traffic after = grid_.peekTraffic();
    reg.counter("sunway.batch.dispatches").inc();
    reg.counter("sunway.batch.systems_total").add(missSystems_.size());
    reg.histogram("sunway.batch.systems", tm::Histogram::batchSizeBounds())
        .observe(static_cast<double>(missSystems_.size()));
    reg.histogram("sunway.dispatch.main_bytes", tm::Histogram::trafficBounds())
        .observe(static_cast<double>(after.mainBytes() - before.mainBytes()));
    reg.histogram("sunway.dispatch.flops", tm::Histogram::trafficBounds())
        .observe(static_cast<double>(after.flops - before.flops));
  }
}

}  // namespace tkmc
