#pragma once

#include <unordered_map>
#include <vector>

#include "lattice/bcc_lattice.hpp"
#include "lattice/vec3.hpp"

namespace tkmc {

/// Coordinates Encoding Tabulation (paper Sec. 3.1, Fig. 4b).
///
/// An ordered list of the relative doubled-integer coordinates of every
/// site in a "vacancy system": the vacancy at the origin, its eight 1NN
/// jump targets, the remaining sites whose energy a jump can change (the
/// *jumping region*, N_region sites in total), and finally the outer
/// shell of sites that act only as neighbours of region sites (N_out).
/// Because all BCC sites are geometrically equivalent, one CET serves
/// every vacancy in the box: translate it to the vacancy's coordinate to
/// enumerate the system's sites.
///
/// Site id layout:
///   [0]                      vacancy centre (0, 0, 0)
///   [1 .. 8]                 the 1NN jump targets, fixed order
///   [9 .. nRegion)           remaining region sites
///   [nRegion .. nAll)        outer sites (energies never change)
class Cet {
 public:
  /// Builds the CET for a given lattice constant and cutoff radius.
  Cet(double latticeConstant, double cutoff);

  double latticeConstant() const { return a_; }
  double cutoff() const { return cutoff_; }

  /// Number of neighbours of a single site within the cutoff
  /// (112 for r_cut = 6.5 A, a = 2.87 A).
  int nLocal() const { return nLocal_; }

  /// Number of sites in the jumping region (253 for the standard setup).
  int nRegion() const { return nRegion_; }

  /// Outer sites.
  int nOut() const { return nAll_ - nRegion_; }

  /// All sites of a vacancy system.
  int nAll() const { return nAll_; }

  /// Relative coordinate of site `id`.
  Vec3i site(int id) const { return sites_[static_cast<std::size_t>(id)]; }

  const std::vector<Vec3i>& sites() const { return sites_; }

  /// Id of a relative coordinate, or -1 when outside the system.
  int idOf(Vec3i rel) const;

  /// Largest |component| of a site's relative coordinate (doubled
  /// units): the reach of a vacancy system along any axis.
  int reach() const { return reach_; }

  /// Ids 1..8 are the jump targets; convenience accessor.
  static constexpr int jumpTargetId(int direction) { return 1 + direction; }

 private:
  double a_;
  double cutoff_;
  int nLocal_ = 0;
  int nRegion_ = 0;
  int nAll_ = 0;
  int reach_ = 0;
  std::vector<Vec3i> sites_;
  std::unordered_map<Vec3i, int, Vec3iHash> idIndex_;
};

}  // namespace tkmc
