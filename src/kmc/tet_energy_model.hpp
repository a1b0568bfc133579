#pragma once

#include <span>
#include <vector>

#include "kmc/energy_model.hpp"
#include "tabulation/cet.hpp"
#include "tabulation/net.hpp"
#include "tabulation/row_plan.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

/// The one evaluation path of every energy backend on the triple-encoding
/// tables (paper Sec. 3.2): gather the VET, let the backend's site kernel
/// fill the atomic energies of RowPlan::hopLocal()'s rows for every
/// system of the batch, then RowPlan::reduce() each system's per-state
/// sums. A backend supplies only atomEnergies() (DESIGN §22).
class TetEnergyModel : public EnergyModel {
 public:
  /// Gathers the VET around `center` and evaluates it as a batch of one.
  std::vector<double> stateEnergies(const LatticeState& state, Vec3i center,
                                    int numFinal) final;

  /// A batch of one.
  std::vector<double> stateEnergiesFromVet(Vet& vet, int numFinal) final;

  /// One kernel call over every system, then one reduction per system.
  /// Throws Error unless 0 <= numFinal <= kNumJumpDirections and every
  /// VET has the CET's nAll() sites. A row's atomic energy depends only on
  /// its own system and state, so results are bit-identical to one
  /// system at a time.
  std::vector<std::vector<double>> stateEnergiesBatch(
      std::span<Vet* const> vets, int numFinal) final;

  bool supportsVet() const final { return true; }

 protected:
  /// Both references must outlive the model.
  TetEnergyModel(const Cet& cet, const Net& net);

  const RowPlan& rows() const { return rows_; }

  /// The site kernel. For each system of `vets` in turn, writes the
  /// rows().systemRows(numFinal) atomic energies of the plan's layout:
  /// row stateOffset(s) + i is site rows().sites(s)[i] with the species
  /// of state s (stateSpecies()). Systems follow each other in `out`. A
  /// row whose site is a vacancy in its state is masked by the
  /// reduction, so any finite value will do. The driver has checked
  /// numFinal and every VET's size, and `vets` is not empty. A kernel
  /// that swaps VET entries must restore them.
  virtual void atomEnergies(std::span<Vet* const> vets, int numFinal,
                            double* out) = 0;

 private:
  const Cet& cet_;
  RowPlan rows_;
};

}  // namespace tkmc
