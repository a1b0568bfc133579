#include "parallel/subdomain.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace tkmc {
namespace {

// Shifts v by multiples of `period` into [lo, lo + span); returns false
// when impossible.
bool shiftInto(int v, int lo, int span, int period, int& out) {
  int shifted = v;
  while (shifted < lo) shifted += period;
  while (shifted >= lo + span) shifted -= period;
  if (shifted < lo) return false;
  out = shifted;
  return true;
}

std::size_t boxSites(Vec3i lo, Vec3i hi) {
  return static_cast<std::size_t>(hi.x - lo.x) * (hi.y - lo.y) *
         (hi.z - lo.z) * 2;
}

}  // namespace

Subdomain::Subdomain(const BccLattice& global, Vec3i originCells,
                     Vec3i extentCells, int ghostCells)
    : Subdomain(global, originCells, extentCells,
                Vec3i{ghostCells, ghostCells, ghostCells}) {}

Subdomain::Subdomain(const BccLattice& global, Vec3i originCells,
                     Vec3i extentCells, Vec3i ghostCells)
    : global_(global), indexer_(originCells, extentCells, ghostCells) {
  extOriginDoubled_ = {2 * (originCells.x - ghostCells.x),
                       2 * (originCells.y - ghostCells.y),
                       2 * (originCells.z - ghostCells.z)};
  extCells_ = {extentCells.x + 2 * ghostCells.x,
               extentCells.y + 2 * ghostCells.y,
               extentCells.z + 2 * ghostCells.z};
  extSpanDoubled_ = {2 * extCells_.x, 2 * extCells_.y, 2 * extCells_.z};
  require(extSpanDoubled_.x <= 2 * global.cellsX() &&
              extSpanDoubled_.y <= 2 * global.cellsY() &&
              extSpanDoubled_.z <= 2 * global.cellsZ(),
          "extended subdomain must fit the global box (shrink the ghost "
          "shell or enlarge the box)");
  species_.assign(static_cast<std::size_t>(indexer_.extendedSiteCount()),
                  Species::kFe);
}

std::pair<Vec3i, bool> Subdomain::toFrame(Vec3i p) const {
  Vec3i f;
  if (!shiftInto(p.x, extOriginDoubled_.x, extSpanDoubled_.x,
                 2 * global_.cellsX(), f.x))
    return {f, false};
  if (!shiftInto(p.y, extOriginDoubled_.y, extSpanDoubled_.y,
                 2 * global_.cellsY(), f.y))
    return {f, false};
  if (!shiftInto(p.z, extOriginDoubled_.z, extSpanDoubled_.z,
                 2 * global_.cellsZ(), f.z))
    return {f, false};
  return {f, true};
}

bool Subdomain::covers(Vec3i p) const { return toFrame(p).second; }

bool Subdomain::owns(Vec3i p) const {
  const auto [f, ok] = toFrame(p);
  return ok && indexer_.isLocal(f);
}

Species Subdomain::speciesAt(Vec3i p) const {
  const auto [f, ok] = toFrame(p);
  require(ok, "coordinate outside this subdomain's extended frame");
  return species_[static_cast<std::size_t>(indexer_.indexOf(f))];
}

void Subdomain::write(Vec3i p, Species s) {
  const auto [f, ok] = toFrame(p);
  require(ok, "coordinate outside this subdomain's extended frame");
  species_[static_cast<std::size_t>(indexer_.indexOf(f))] = s;
  if (indexer_.isLocal(f)) recordChange(f);
}

void Subdomain::set(Vec3i p, Species s) {
  write(p, s);
  if (cache_) cache_->applyChange(p, s);
}

Species Subdomain::hopVacancy(int index, Vec3i to) {
  const Vec3i from = vacancies_[static_cast<std::size_t>(index)];
  const Species migrating = speciesAt(to);
  require(migrating != Species::kVacancy, "hop into a vacancy");
  write(from, migrating);
  write(to, Species::kVacancy);
  const bool stays = owns(to);
  if (stays)
    vacancies_[static_cast<std::size_t>(index)] = global_.wrap(to);
  else
    vacancies_.erase(vacancies_.begin() + index);
  if (cache_) {
    if (!stays) cache_->erase(index);
    cache_->applyHop(*this, stays ? index : -1, from, to);
  }
  return migrating;
}

void Subdomain::applyFold(Vec3i p, Species s) {
  require(owns(p), "fold routed to wrong owner");
  const Species before = speciesAt(p);
  set(p, s);
  if (s != Species::kVacancy || before == Species::kVacancy) return;
  vacancies_.push_back(global_.wrap(p));
  if (cache_) cache_->append(*this, p);
}

void Subdomain::setVacancyOrder(std::vector<Vec3i> order) {
  vacancies_ = std::move(order);
  rebuildCache();
}

void Subdomain::attachCache(const Cet& cet, const EventCatalog& catalog) {
  cache_.emplace(cet, global_, &catalog);
  rebuildCache();
}

void Subdomain::rebuildCache() {
  if (cache_) cache_->rebuild(*this, vacancies_);
}

void Subdomain::recordChange(Vec3i f) {
  if (resync_) return;  // full slabs will carry every site anyway
  if (changes_.size() >= species_.size()) {
    // More entries than sites: a full resync is cheaper to send.
    changes_.clear();
    resync_ = true;
    return;
  }
  const int cx = (f.x - extOriginDoubled_.x) >> 1;
  const int cy = (f.y - extOriginDoubled_.y) >> 1;
  const int cz = (f.z - extOriginDoubled_.z) >> 1;
  const auto cell = static_cast<std::uint32_t>(
      cx + extCells_.x * (cy + extCells_.y * cz));
  changes_.push_back(cell * 2 + static_cast<std::uint32_t>(f.x & 1));
}

void Subdomain::clearChanges() {
  changes_.clear();
  resync_ = false;
}

Vec3i Subdomain::frameSite(Vec3i cell, int sub) const {
  return {extOriginDoubled_.x + 2 * cell.x + sub,
          extOriginDoubled_.y + 2 * cell.y + sub,
          extOriginDoubled_.z + 2 * cell.z + sub};
}

template <typename Fn>
void Subdomain::forEachRun(Vec3i lo, Vec3i hi, Fn&& fn) const {
  const Vec3i g = ghostCellsVec();
  const Vec3i e = extentCells();
  // Along an owned row the storage class flips at these x cells.
  const int splits[2] = {g.x, g.x + e.x};
  std::size_t offset = 0;
  for (int cz = lo.z; cz < hi.z; ++cz) {
    const bool planeOwned = cz >= g.z && cz < g.z + e.z;
    for (int cy = lo.y; cy < hi.y; ++cy) {
      const bool rowOwned = planeOwned && cy >= g.y && cy < g.y + e.y;
      for (int x0 = lo.x; x0 < hi.x;) {
        int x1 = hi.x;
        if (rowOwned)
          for (int split : splits)
            if (split > x0) x1 = std::min(x1, split);
        const Vec3i first{x0, cy, cz};
        const auto slot =
            static_cast<std::size_t>(indexer_.indexOf(frameSite(first, 0)));
        const auto sites = static_cast<std::size_t>(2 * (x1 - x0));
        fn(first, slot, sites, offset);
        offset += sites;
        x0 = x1;
      }
    }
  }
}

void Subdomain::loadFrom(const LatticeState& state) {
  forEachRun({0, 0, 0}, extCells_,
             [&](Vec3i first, std::size_t slot, std::size_t sites,
                 std::size_t) {
               for (std::size_t i = 0; i < sites; ++i)
                 species_[slot + i] = state.speciesAt(frameSite(
                     {first.x + static_cast<int>(i / 2), first.y, first.z},
                     static_cast<int>(i & 1)));
             });
  changes_.clear();
  resync_ = true;
  rescanVacancies();
}

void Subdomain::rescanVacancies() {
  vacancies_.clear();
  const Vec3i e = extentCells();
  const Vec3i g = ghostCellsVec();
  forEachRun(g, {g.x + e.x, g.y + e.y, g.z + e.z},
             [&](Vec3i first, std::size_t slot, std::size_t sites,
                 std::size_t) {
               for (std::size_t i = 0; i < sites; ++i)
                 if (species_[slot + i] == Species::kVacancy)
                   vacancies_.push_back(global_.wrap(frameSite(
                       {first.x + static_cast<int>(i / 2), first.y, first.z},
                       static_cast<int>(i & 1))));
             });
  rebuildCache();
}

std::vector<std::uint8_t> Subdomain::packCellBox(Vec3i lo, Vec3i hi) const {
  std::vector<std::uint8_t> out(boxSites(lo, hi));
  forEachRun(lo, hi,
             [&](Vec3i, std::size_t slot, std::size_t sites,
                 std::size_t offset) {
               std::memcpy(out.data() + offset, species_.data() + slot, sites);
             });
  return out;
}

void Subdomain::unpackCellBox(Vec3i lo, Vec3i hi,
                              const std::vector<std::uint8_t>& data) {
  require(data.size() == boxSites(lo, hi), "ghost payload has wrong size");
  forEachRun(lo, hi,
             [&](Vec3i first, std::size_t slot, std::size_t sites,
                 std::size_t offset) {
               // A full slab names no changed sites: diff it against the
               // ghost cells to patch the cache with exactly the writes.
               for (std::size_t i = 0; cache_ && i < sites; ++i) {
                 const auto s = static_cast<Species>(data[offset + i]);
                 if (species_[slot + i] != s)
                   cache_->applyChange(
                       frameSite({first.x + static_cast<int>(i / 2), first.y,
                                  first.z},
                                 static_cast<int>(i & 1)),
                       s);
               }
               std::memcpy(species_.data() + slot, data.data() + offset, sites);
             });
}

std::vector<Subdomain::BoxChange> Subdomain::changesInBox(Vec3i lo,
                                                          Vec3i hi) const {
  std::vector<BoxChange> out;
  const int bx = hi.x - lo.x;
  const int by = hi.y - lo.y;
  for (const std::uint32_t id : changes_) {
    const auto cell = static_cast<int>(id / 2);
    const int sub = static_cast<int>(id & 1);
    const Vec3i c{cell % extCells_.x, (cell / extCells_.x) % extCells_.y,
                  cell / (extCells_.x * extCells_.y)};
    if (c.x < lo.x || c.x >= hi.x || c.y < lo.y || c.y >= hi.y ||
        c.z < lo.z || c.z >= hi.z)
      continue;
    const int boxCell = (c.x - lo.x) + bx * ((c.y - lo.y) + by * (c.z - lo.z));
    out.push_back({static_cast<std::uint32_t>(2 * boxCell + sub),
                   species_[static_cast<std::size_t>(
                       indexer_.indexOf(frameSite(c, sub)))]});
  }
  std::sort(out.begin(), out.end(),
            [](const BoxChange& a, const BoxChange& b) {
              return a.offset < b.offset;
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const BoxChange& a, const BoxChange& b) {
                          return a.offset == b.offset;
                        }),
            out.end());
  return out;
}

void Subdomain::applyChanges(Vec3i lo, Vec3i hi,
                             const std::vector<BoxChange>& changes) {
  const std::size_t sites = boxSites(lo, hi);
  const int bx = hi.x - lo.x;
  const int by = hi.y - lo.y;
  for (const BoxChange& change : changes) {
    require(change.offset < sites, "ghost change outside its cell box");
    const auto boxCell = static_cast<int>(change.offset / 2);
    const Vec3i c{lo.x + boxCell % bx, lo.y + (boxCell / bx) % by,
                  lo.z + boxCell / (bx * by)};
    const Vec3i f = frameSite(c, static_cast<int>(change.offset & 1));
    species_[static_cast<std::size_t>(indexer_.indexOf(f))] = change.species;
    recordChange(f);
    if (cache_) cache_->applyChange(f, change.species);
  }
}

}  // namespace tkmc
