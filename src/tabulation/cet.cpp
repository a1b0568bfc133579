#include "tabulation/cet.hpp"

#include <algorithm>
#include <cstdlib>
#include <unordered_set>

#include "common/error.hpp"

namespace tkmc {
namespace {

// Deterministic ordering: by squared norm, then lexicographic.
void sortSites(std::vector<Vec3i>& v) {
  std::sort(v.begin(), v.end(), [](Vec3i a, Vec3i b) {
    if (a.norm2() != b.norm2()) return a.norm2() < b.norm2();
    if (a.x != b.x) return a.x < b.x;
    if (a.y != b.y) return a.y < b.y;
    return a.z < b.z;
  });
}

}  // namespace

Cet::Cet(double latticeConstant, double cutoff)
    : a_(latticeConstant), cutoff_(cutoff) {
  // A throwaway lattice provides the offset enumeration; only the lattice
  // constant matters for geometry.
  const BccLattice geometry(4, 4, 4, latticeConstant);
  const std::vector<Vec3i> within = geometry.offsetsWithinCutoff(cutoff);
  nLocal_ = static_cast<int>(within.size());

  const auto& jumps = BccLattice::firstNeighborOffsets();

  // Region: sites within the cutoff of the centre or of any 1NN target,
  // plus the centre and the targets themselves.
  std::unordered_set<Vec3i, Vec3iHash> region;
  region.insert(Vec3i{});
  for (const Vec3i& c : jumps) region.insert(c);
  for (const Vec3i& d : within) region.insert(d);
  for (const Vec3i& c : jumps)
    for (const Vec3i& d : within) region.insert(c + d);

  // Outer shell: neighbours of region sites that are not themselves in
  // the region. Their species matter for region-site energies but their
  // own energies never change during a jump from this vacancy.
  std::unordered_set<Vec3i, Vec3iHash> outer;
  for (const Vec3i& s : region)
    for (const Vec3i& d : within) {
      const Vec3i t = s + d;
      if (!region.contains(t)) outer.insert(t);
    }

  // Assemble the ordered site list. The centre and jump targets come
  // first in a fixed order so the fast feature operator can swap
  // VET[0] <-> VET[1 + direction] to realize a hop.
  sites_.push_back(Vec3i{});
  for (const Vec3i& c : jumps) sites_.push_back(c);

  std::vector<Vec3i> regionRest;
  for (const Vec3i& s : region) {
    if (s == Vec3i{}) continue;
    if (std::find(jumps.begin(), jumps.end(), s) != jumps.end()) continue;
    regionRest.push_back(s);
  }
  sortSites(regionRest);
  sites_.insert(sites_.end(), regionRest.begin(), regionRest.end());
  nRegion_ = static_cast<int>(sites_.size());

  std::vector<Vec3i> outerSorted(outer.begin(), outer.end());
  sortSites(outerSorted);
  sites_.insert(sites_.end(), outerSorted.begin(), outerSorted.end());
  nAll_ = static_cast<int>(sites_.size());
  for (const Vec3i& s : sites_)
    reach_ = std::max({reach_, std::abs(s.x), std::abs(s.y), std::abs(s.z)});

  idIndex_.reserve(sites_.size() * 2);
  for (int id = 0; id < nAll_; ++id)
    idIndex_.emplace(sites_[static_cast<std::size_t>(id)], id);
  require(static_cast<int>(idIndex_.size()) == nAll_,
          "CET sites must be unique");
}

int Cet::idOf(Vec3i rel) const {
  // The bounding box rejects most far sites before the hash lookup.
  if (std::abs(rel.x) > reach_ || std::abs(rel.y) > reach_ ||
      std::abs(rel.z) > reach_)
    return -1;
  auto it = idIndex_.find(rel);
  return it == idIndex_.end() ? -1 : it->second;
}

}  // namespace tkmc
