#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "kmc/vacancy_cache.hpp"
#include "lattice/bcc_lattice.hpp"
#include "lattice/lattice_state.hpp"
#include "lattice/site_indexer.hpp"

namespace tkmc {

/// One rank's portion of the global lattice: owned cells plus a ghost
/// shell, stored through the direct Eq.-4 indexing (no POS_ID array).
///
/// Coordinates at the API are wrapped *global* doubled-integer
/// coordinates; the subdomain translates them into its unwrapped extended
/// frame by choosing the periodic image that lands inside the frame
/// (unique as long as the extended box is smaller than the global box).
///
/// For the incremental ghost exchange the subdomain keeps a change list:
/// every owned site written through set() since the last completed
/// exchange, plus every ghost site received as a change during the
/// current one. A resync flag, raised by construction and loadFrom(),
/// tells the exchange that the change list cannot describe the state and
/// full slabs must be sent instead.
///
/// With a vacancy cache attached (attachCache), the subdomain keeps it
/// exact: every write — set(), hopVacancy(), applyFold(), a received
/// ghost change list or full slab — is patched into the cached VETs, and
/// loadFrom() and setVacancyOrder() rebuild it. Subdomain copies (cycle
/// snapshots) carry their cache along.
class Subdomain {
 public:
  /// One changed site of a cell box. `offset` is the site's position in
  /// packCellBox() order for that box.
  struct BoxChange {
    std::uint32_t offset;
    Species species;
  };

  Subdomain(const BccLattice& global, Vec3i originCells, Vec3i extentCells,
            int ghostCells);
  /// Per-axis ghost widths: an axis whose rank grid is 1 carries no
  /// ghost shell (the subdomain spans the whole period there), which
  /// keeps the extended frame within the global box on flat rank grids.
  Subdomain(const BccLattice& global, Vec3i originCells, Vec3i extentCells,
            Vec3i ghostCells);

  const BccLattice& global() const { return global_; }
  const SiteIndexer& indexer() const { return indexer_; }

  /// True when the global coordinate has an image inside the extended box.
  bool covers(Vec3i globalCoord) const;

  /// True when this rank owns the coordinate.
  bool owns(Vec3i globalCoord) const;

  Species speciesAt(Vec3i globalCoord) const;
  /// Writes a site. Owned sites join the change list; ghost writes do
  /// not (the owner records the same site when the change folds back).
  void set(Vec3i globalCoord, Species s);

  /// Copies owned + ghost species from a full global state (startup,
  /// recovery), rescans the vacancy list and raises the resync flag.
  void loadFrom(const LatticeState& state);

  /// Owned vacancies, wrapped global coordinates, stable order.
  const std::vector<Vec3i>& vacancies() const { return vacancies_; }
  /// Replaces the vacancy order (a checkpoint's recorded one).
  void setVacancyOrder(std::vector<Vec3i> order);

  /// Hops owned vacancy `index` to the neighbouring site `to`: writes
  /// both sites, then moves its list entry there, or drops it when `to`
  /// is not owned. Returns the migrating species.
  Species hopVacancy(int index, Vec3i to);

  /// Writes an owned site folded back from another rank; a vacancy that
  /// arrives there joins the end of the vacancy list.
  void applyFold(Vec3i globalCoord, Species s);

  /// Attaches this rank's vacancy cache, gathered from the current state.
  void attachCache(const Cet& cet, const EventCatalog& catalog);
  VacancyCache& cache() { return *cache_; }
  const VacancyCache& cache() const { return *cache_; }

  /// Packs the species of every site whose unit cell lies in the
  /// extended-frame cell box [lo, hi) (cells counted from the extended
  /// origin). Deterministic x-fastest order, 2 sites per cell.
  std::vector<std::uint8_t> packCellBox(Vec3i lo, Vec3i hi) const;

  /// Unpacks a payload produced by packCellBox() for the same-shaped box.
  void unpackCellBox(Vec3i lo, Vec3i hi, const std::vector<std::uint8_t>& data);

  /// Changed sites inside the cell box [lo, hi) with their current
  /// species, sorted by offset and de-duplicated.
  std::vector<BoxChange> changesInBox(Vec3i lo, Vec3i hi) const;

  /// Writes changes received for the cell box [lo, hi) (offsets as
  /// produced by changesInBox() on a same-shaped box) and records the
  /// written sites as changed, so later exchange stages forward them.
  void applyChanges(Vec3i lo, Vec3i hi, const std::vector<BoxChange>& changes);

  /// True when the next ghost exchange must send full slabs.
  bool resyncPending() const { return resync_; }
  void requestResync() { resync_ = true; }

  /// Forgets the change list and the resync flag (end of a completed
  /// ghost exchange).
  void clearChanges();

  Vec3i originCells() const { return indexer_.originCells(); }
  Vec3i extentCells() const { return indexer_.extentCells(); }
  int ghostCells() const { return indexer_.ghostCells(); }
  Vec3i ghostCellsVec() const { return indexer_.ghostCellsVec(); }

 private:
  /// Maps a wrapped global coordinate into the extended frame; second
  /// element false when no image fits.
  std::pair<Vec3i, bool> toFrame(Vec3i globalCoord) const;

  /// set() without the cache patch.
  void write(Vec3i globalCoord, Species s);

  /// Rebuilds the vacancy list by scanning the owned region, and the
  /// cache with it.
  void rescanVacancies();
  void rebuildCache();

  /// Site coordinate (doubled, frame coords) of cell (cx,cy,cz) relative
  /// to the extended origin, sublattice sub.
  Vec3i frameSite(Vec3i cell, int sub) const;

  /// Calls fn(firstCell, slot, sites, offset) for each run of cells in
  /// the box [lo, hi) that share a storage class (all owned or all
  /// ghost) along x. `slot` is the array slot of the run's first site,
  /// `sites` the run length in sites, and `offset` the position of the
  /// first site in packCellBox() order. Slots are contiguous within a
  /// run, so the indexer is consulted once per run instead of per site.
  template <typename Fn>
  void forEachRun(Vec3i lo, Vec3i hi, Fn&& fn) const;

  /// Appends the frame site to the change list unless a resync is
  /// already pending; an overlong list degrades to a resync.
  void recordChange(Vec3i frameCoord);

  BccLattice global_;
  SiteIndexer indexer_;
  Vec3i extOriginDoubled_;
  Vec3i extSpanDoubled_;
  Vec3i extCells_;  // extent + 2 * ghost
  std::vector<Species> species_;
  std::vector<Vec3i> vacancies_;
  std::optional<VacancyCache> cache_;  // entries follow vacancies_
  // Extended-frame traversal ids (cell index * 2 + sublattice, cells
  // x-fastest) of the sites changed since the last exchange; may repeat.
  std::vector<std::uint32_t> changes_;
  bool resync_ = true;
};

}  // namespace tkmc
