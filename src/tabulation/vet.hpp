#pragma once

#include <utility>
#include <vector>

#include "common/constants.hpp"
#include "common/error.hpp"
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

  /// Gathers the environment of the vacancy at `center` from `source`:
  /// anything with `Species speciesAt(Vec3i) const` — the global
  /// LatticeState, or one rank's Subdomain. This is the only step that
  /// touches the big lattice array.
  template <class Source>
  static Vet gather(const Cet& cet, const Source& source, Vec3i center) {
    Vet vet(cet.nAll());
    require(source.speciesAt(center) == Species::kVacancy,
            "VET must be centred on a vacancy");
    for (int id = 0; id < cet.nAll(); ++id)
      vet.types_[static_cast<std::size_t>(id)] =
          source.speciesAt(center + cet.site(id));
    return vet;
  }

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
