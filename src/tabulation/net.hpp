#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tabulation/cet.hpp"

namespace tkmc {

/// Neighbour-list Encoding Tabulation (paper Sec. 3.1, Fig. 4c).
///
/// For every site in the jumping region, NET stores its neighbours as
/// (CET site id, distance index) pairs. Because AKMC atoms sit exactly on
/// lattice sites, only a handful of distinct interatomic distances occur
/// within the cutoff; NET indexes into that small unique-distance table,
/// which is what makes the tabulated feature evaluation of Eq. 6 possible.
/// Like the CET, a single NET is shared by every vacancy system.
///
/// The NET also fixes, per jump direction k, which region sites a single
/// hop can change (affectedSites()): a hop only swaps the species of
/// sites 0 and 1 + k, so a region site whose NET row names neither keeps
/// bitwise the same features, and hence the same atomic energy.
class Net {
 public:
  struct Entry {
    std::int32_t siteId;     // neighbour's id within the CET
    std::int32_t distIndex;  // index into distances()
  };

  explicit Net(const Cet& cet);

  /// Neighbours of region site `siteId` (valid for ids < cet.nRegion()).
  std::span<const Entry> neighbors(int siteId) const {
    const std::size_t begin = offsets_[static_cast<std::size_t>(siteId)];
    const std::size_t end = offsets_[static_cast<std::size_t>(siteId) + 1];
    return {entries_.data() + begin, end - begin};
  }

  /// Unique interatomic distances within the cutoff, ascending (angstrom).
  const std::vector<double>& distances() const { return distances_; }

  /// Number of region sites covered (== cet.nRegion()).
  int regionSites() const { return static_cast<int>(offsets_.size()) - 1; }

  /// Total stored (site, neighbour) entries.
  std::size_t entryCount() const { return entries_.size(); }

  /// Region sites whose atomic energy the hop to jump target
  /// `direction` can change: site 0, the target, and every region site
  /// that lists either of them among its neighbours. Ascending ids; 22
  /// of 59 sites at r_cut = 4.0 A and 144 of 253 at 6.5 A.
  std::span<const int> affectedSites(int direction) const {
    return affected_[static_cast<std::size_t>(direction)];
  }

 private:
  std::vector<std::size_t> offsets_;  // regionSites + 1 prefix offsets
  std::vector<Entry> entries_;
  std::vector<double> distances_;
  std::vector<std::vector<int>> affected_;  // per jump direction
};

}  // namespace tkmc
