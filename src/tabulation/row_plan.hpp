#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/constants.hpp"
#include "tabulation/net.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

/// Which (state, region site) rows a TET evaluation of one vacancy
/// system computes, and where they sit among that system's rows.
///
/// State 0 (the initial state) always evaluates every region site, in
/// id order. Final state s = 1 + k evaluates sites(s), ascending, and
/// takes every other site's atomic energy from the initial state. A
/// system's rows are state 0's, then state 1's, and so on; state s
/// starts at row stateOffset(s). Two plans exist:
///
/// - full(): every final state evaluates every region site. This is the
///   row set of the paper's operator-level figures (Fig. 9-13), whose
///   DMA, RMA and flop counts it reproduces.
/// - hopLocal(): final state 1 + k evaluates Net::affectedSites(k), the
///   sites the hop can change (22 of 59 at 4.0 A). An unaffected site
///   reads the same species in the same NET order as in the initial
///   state, so its features and atomic energy are bitwise the initial
///   ones, and every state energy equals a full recompute.
class RowPlan {
 public:
  static RowPlan full(const Net& net);
  static RowPlan hopLocal(const Net& net);

  int regionSites() const { return static_cast<int>(offsets_[1]); }

  /// Region sites state `state` (0 .. kNumJumpDirections) evaluates.
  std::span<const int> sites(int state) const {
    const std::size_t s = static_cast<std::size_t>(state);
    return {sites_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
  }

  /// First row of state `state` among its system's rows.
  std::size_t stateOffset(int state) const {
    return offsets_[static_cast<std::size_t>(state)];
  }

  /// Rows of one system with 1 + numFinal states.
  std::size_t systemRows(int numFinal) const {
    return offsets_[static_cast<std::size_t>(numFinal) + 1];
  }

  /// The per-state reduction: energies[s] for s = 0 .. numFinal from one
  /// system's atomic energies `atomE` ([systemRows(numFinal)], this
  /// plan's layout). A state's site energies are its own rows where it
  /// has them and the initial state's elsewhere; they are summed over
  /// site ids in ascending order, with the state's vacancies
  /// (stateSpecies of `vet`) masked out.
  void reduce(const Vet& vet, int numFinal, const double* atomE,
              double* energies) const;

 private:
  RowPlan(const Net& net, bool hopLocal);

  std::vector<int> sites_;             // every state's sites, back to back
  std::vector<std::size_t> offsets_;   // kNumJumpDirections + 2 prefix offsets
  // [state][site]: the row a state's site energy is read from — the
  // state's own row where it has one, else the initial state's.
  std::vector<std::uint32_t> energyRows_;
};

}  // namespace tkmc
