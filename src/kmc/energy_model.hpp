#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "lattice/lattice_state.hpp"
#include "lattice/vec3.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

/// Energy backend for AKMC propensity calculations.
///
/// For the vacancy at `center`, stateEnergies() returns the energy of the
/// jumping region in the initial state followed by the energies after
/// each of the `numFinal` candidate hops (vacancy exchanged with 1NN
/// target k). Only differences between entries are physically meaningful
/// (Eq. 2 uses E_f - E_i); absolute offsets cancel.
///
/// Implementations must be deterministic pure functions of the lattice
/// contents so that engines with different caching strategies produce
/// bit-identical trajectories (the Fig. 8 validation).
class EnergyModel {
 public:
  virtual ~EnergyModel() = default;

  virtual std::vector<double> stateEnergies(const LatticeState& state,
                                            Vec3i center, int numFinal) = 0;

  /// Backends built on the triple-encoding tables (TetEnergyModel)
  /// evaluate from an already-gathered VET, which is what the vacancy
  /// cache feeds them. Backends without VET support (the direct
  /// reference path) keep these defaults and must be run with the cache
  /// disabled.
  virtual bool supportsVet() const { return false; }

  virtual std::vector<double> stateEnergiesFromVet(Vet& vet, int numFinal) {
    (void)vet;
    (void)numFinal;
    throw Error("this energy backend cannot evaluate from a VET");
  }

  /// Evaluates many vacancy systems in one dispatch. Result i holds the
  /// stateEnergies() vector of vets[i]; entries must be bit-identical to
  /// calling stateEnergiesFromVet(*vets[i], numFinal) one at a time, in
  /// order — engines rely on this to batch their propensity refreshes
  /// without perturbing trajectories.
  virtual std::vector<std::vector<double>> stateEnergiesBatch(
      std::span<Vet* const> vets, int numFinal) {
    (void)vets;
    (void)numFinal;
    throw Error("this energy backend cannot evaluate from a VET");
  }

  /// True when stateEnergies*/stateEnergiesBatch may be called from
  /// several threads at once (the threaded parallel backend dispatches
  /// one propensity batch per rank thread). Backends whose evaluation
  /// is a pure read of immutable tables opt in; anything with mutable
  /// scratch, device queues, or shared accumulators keeps the default
  /// and is serialized behind the engine's model mutex instead.
  virtual bool concurrentDispatchSafe() const { return false; }

  /// Human-readable backend name for logs and benches.
  virtual const char* name() const = 0;
};

}  // namespace tkmc
