#include "tabulation/net.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "lattice/bcc_lattice.hpp"

namespace tkmc {

Net::Net(const Cet& cet) {
  const BccLattice geometry(4, 4, 4, cet.latticeConstant());
  const std::vector<Vec3i> within = geometry.offsetsWithinCutoff(cet.cutoff());

  // Unique squared step norms -> distance indices.
  std::map<std::int64_t, int> normToIndex;
  for (const Vec3i& d : within) normToIndex.emplace(d.norm2(), 0);
  int next = 0;
  for (auto& [norm2, index] : normToIndex) index = next++;
  distances_.resize(normToIndex.size());
  for (const auto& [norm2, index] : normToIndex)
    distances_[static_cast<std::size_t>(index)] =
        std::sqrt(static_cast<double>(norm2)) * cet.latticeConstant() / 2;

  offsets_.reserve(static_cast<std::size_t>(cet.nRegion()) + 1);
  offsets_.push_back(0);
  entries_.reserve(static_cast<std::size_t>(cet.nRegion()) * within.size());
  for (int id = 0; id < cet.nRegion(); ++id) {
    const Vec3i s = cet.site(id);
    for (const Vec3i& d : within) {
      const int neighborId = cet.idOf(s + d);
      require(neighborId >= 0,
              "CET must contain every neighbour of a region site");
      entries_.push_back({neighborId, normToIndex.at(d.norm2())});
    }
    offsets_.push_back(entries_.size());
  }

  affected_.resize(kNumJumpDirections);
  for (int k = 0; k < kNumJumpDirections; ++k) {
    const int target = Cet::jumpTargetId(k);
    for (int id = 0; id < cet.nRegion(); ++id) {
      const auto row = neighbors(id);
      const bool touched =
          id == 0 || id == target ||
          std::any_of(row.begin(), row.end(), [&](const Entry& e) {
            return e.siteId == 0 || e.siteId == target;
          });
      if (touched) affected_[static_cast<std::size_t>(k)].push_back(id);
    }
  }
}

}  // namespace tkmc
