#pragma once

#include <utility>
#include <vector>

#include "common/constants.hpp"
#include "lattice/lattice_state.hpp"
#include "tabulation/cet.hpp"

namespace tkmc {

/// Vacancy Encoding Tabulation (paper Sec. 3.1, Fig. 4d).
///
/// The per-vacancy-system environment vector: VET[id] is the species of
/// the site at CET relative coordinate `id`, gathered from the global
/// lattice once per (re)initialization. A hop to jump target k is
/// realized by swapping VET[0] with VET[1 + k] — no global lattice access
/// needed, which is what lets the fast feature operator run entirely out
/// of scratchpad copies.
class Vet {
 public:
  Vet() = default;
  explicit Vet(int nAll) : types_(static_cast<std::size_t>(nAll), Species::kFe) {}

  /// Gathers the environment of the vacancy at `center` from the lattice.
  /// This is the only step that touches the big lattice array.
  static Vet gather(const Cet& cet, const LatticeState& state, Vec3i center);

  Species operator[](int id) const { return types_[static_cast<std::size_t>(id)]; }
  void set(int id, Species s) { types_[static_cast<std::size_t>(id)] = s; }

  void swap(int a, int b) {
    std::swap(types_[static_cast<std::size_t>(a)], types_[static_cast<std::size_t>(b)]);
  }

  int size() const { return static_cast<int>(types_.size()); }
  const std::vector<Species>& data() const { return types_; }

 private:
  std::vector<Species> types_;
};

/// Species of CET site `siteId` in state `state` (0 = initial, k > 0 =
/// after the hop to jump target k), given the initial-state VET. Shared
/// by every backend so masking logic cannot diverge.
inline Species stateSpecies(const Vet& vet, int state, int siteId) {
  if (state == 0) return vet[siteId];
  const int target = Cet::jumpTargetId(state - 1);
  if (siteId == 0) return vet[target];
  if (siteId == target) return vet[0];
  return vet[siteId];
}

}  // namespace tkmc
