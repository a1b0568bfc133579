#pragma once

#include <cstdint>
#include <vector>

#include "kmc/rate_calculator.hpp"
#include "lattice/lattice_state.hpp"
#include "tabulation/cet.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

class EnergyModel;
class EventCatalog;

/// Vacancy-cache mechanism (paper Sec. 3.2-3.3).
///
/// Instead of the OpenKMC "cache all" strategy (per-atom property arrays
/// spanning the whole domain), only vacancy systems are cached: one entry
/// per vacancy, in the owner's vacancy-list order, holding the centre,
/// its VET, its catalog site class, its per-type rates and a dirty flag.
/// Every site the owner writes is pushed into each cached VET whose CET
/// contains it (applyChange); an entry whose VET changes is flagged dirty
/// and the next refresh() re-evaluates dirty entries only. Full gathers
/// happen at rebuild() and for a vacancy that moved or arrived.
///
/// Both engines share it. SerialEngine gathers from its LatticeState.
/// Each ParallelEngine rank keeps one inside its Subdomain, fed by the
/// rank's own hops, the fold and the ghost exchange. A `Source` is
/// anything with `Species speciesAt(Vec3i) const` holding the current
/// occupation around the cached centres.
class VacancyCache {
 public:
  /// `catalog` classifies cached centres and evaluates their rates. Null
  /// classifies everything as class 0 and leaves refresh() unusable.
  VacancyCache(const Cet& cet, const BccLattice& lattice,
               const EventCatalog* catalog = nullptr);

  /// Discards everything and gathers one entry per centre, in order. All
  /// entries start dirty.
  template <class Source>
  void rebuild(const Source& source, const std::vector<Vec3i>& centers) {
    evictions_ += entries_.size();
    entries_.clear();
    for (const Vec3i& c : centers) gatherInto(entries_.emplace_back(), source, c);
  }
  void rebuild(const LatticeState& state) { rebuild(state, state.vacancies()); }

  int size() const { return static_cast<int>(entries_.size()); }

  Vet& vet(int index) { return entry(index).vet; }
  const Vet& vet(int index) const { return entry(index).vet; }
  Vec3i center(int index) const { return entry(index).center; }
  /// Cached catalog site class of the entry's centre (0 if no catalog).
  int siteClass(int index) const { return entry(index).siteClass; }
  /// Rates of event `type` from the entry's last refresh.
  const JumpRates& rates(int index, int type) const {
    return entry(index).rates[static_cast<std::size_t>(type)];
  }

  bool isDirty(int index) const { return entry(index).dirty; }
  void clearDirty(int index) { entry(index).dirty = false; }

  /// Patches a written site into every entry whose CET contains it; an
  /// entry whose VET changes is marked dirty.
  void applyChange(Vec3i site, Species species);

  /// Propagates a hop: `source` must already hold it. The hopped entry
  /// `vacIndex` is re-gathered at `to` (-1: the vacancy left the list and
  /// its entry was erased), then both sites are applyChange()d.
  template <class Source>
  void applyHop(const Source& source, int vacIndex, Vec3i from, Vec3i to) {
    if (vacIndex >= 0) {
      gatherInto(entry(vacIndex), source, to);
      ++misses_;
    }
    applyChange(from, source.speciesAt(from));
    applyChange(to, Species::kVacancy);
  }

  /// Appends a dirty entry for a vacancy that arrived at `center`.
  template <class Source>
  void append(const Source& source, Vec3i center) {
    gatherInto(entries_.emplace_back(), source, center);
    ++misses_;
  }

  /// Drops the entry of a vacancy that left the list.
  void erase(int index);

  /// Who refreshes: the flight-recorder ring, phase tag and ordinal of
  /// its breadcrumbs (rank/sector/cycle, or 0/0/step serially) and the
  /// histogram its batch sizes feed.
  struct Caller {
    int rank = 0;
    int phase = 0;
    std::uint64_t ordinal = 0;
    const char* batchMetric = "kmc.batch_size";
  };

  /// Re-evaluates every dirty entry, or only those with `(*wanted)[i]`
  /// set, in ascending index order. Entries whose site class no event
  /// type applies to get zero rates without an energy evaluation; the
  /// rest go through one stateEnergiesBatch() and, per type, the
  /// catalog's evaluateChecked(). A non-finite or negative total throws
  /// InvariantError after a breadcrumb. Returns the refreshed indices.
  /// With `direct` set, energies come from stateEnergies() on that
  /// lattice (backends without VET support) instead of the cached VETs.
  const std::vector<int>& refresh(EnergyModel& model, double temperature,
                                  const std::vector<bool>* wanted,
                                  const Caller& caller,
                                  const LatticeState* direct = nullptr);

  /// Number of full VET gathers performed (instrumentation).
  std::uint64_t gatherCount() const { return gathers_; }
  /// Entries refresh() has re-evaluated (instrumentation).
  std::uint64_t refreshCount() const { return refreshes_; }

  // Cache-effectiveness counters (telemetry snapshot feed). A *hit* is a
  // clean entry invalidated by an in-place patch: it will be refreshed
  // from its cached VET without a gather. A *miss* is a steady-state full
  // gather (a hopped or arriving vacancy). The bulk gathers of rebuild()
  // — initialization and restore — are cold fills, not cache decisions,
  // so they appear in gatherCount() but not in missCount(); counting them
  // as misses skewed kmc.cache.hit_rate after every rebuild/restore. An
  // *eviction* is a cached entry discarded by rebuild().
  std::uint64_t hitCount() const { return hits_; }
  std::uint64_t missCount() const { return misses_; }
  std::uint64_t evictionCount() const { return evictions_; }
  /// hits / (hits + misses); 0 before any activity.
  double hitRate() const {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) / static_cast<double>(total);
  }

  /// Bytes held by the cache (the paper's "VAC Cache" Table 1 entry:
  /// species byte + 4-byte global site id per CET slot, per vacancy).
  std::size_t memoryBytes() const;

 private:
  struct Entry {
    Vec3i center;  // wrapped vacancy coordinate
    Vet vet;
    int siteClass = 0;
    std::vector<JumpRates> rates;  // per event type
    bool dirty = true;
  };

  Entry& entry(int index) { return entries_[static_cast<std::size_t>(index)]; }
  const Entry& entry(int index) const {
    return entries_[static_cast<std::size_t>(index)];
  }
  /// Fresh dirty entry at `center`, gathered from `source`.
  template <class Source>
  void gatherInto(Entry& e, const Source& source, Vec3i center) {
    e.center = lattice_.wrap(center);
    e.vet = Vet::gather(*cet_, source, e.center);
    e.siteClass = classify(e.center);
    e.rates.assign(static_cast<std::size_t>(typeCount()), JumpRates{});
    e.dirty = true;
    ++gathers_;
  }
  int classify(Vec3i center) const;
  int typeCount() const;

  const Cet* cet_;
  BccLattice lattice_;
  const EventCatalog* catalog_;
  std::vector<Entry> entries_;
  // Scratch of one refresh(), reused across calls.
  std::vector<int> refreshed_;
  std::vector<int> batchIdx_;
  std::vector<Vet*> batchVets_;
  std::uint64_t gathers_ = 0;  // all full gathers
  std::uint64_t misses_ = 0;   // steady-state gathers only
  std::uint64_t hits_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t refreshes_ = 0;
};

}  // namespace tkmc
