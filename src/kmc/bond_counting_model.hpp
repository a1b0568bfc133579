#pragma once

#include <array>

#include "kmc/tet_energy_model.hpp"

namespace tkmc {

/// Pair energies in eV/bond, indexed FeFe / FeCu / CuCu. Defaults give
/// bcc Fe-Cu a positive mixing enthalpy (Cu demixes, as in the
/// thermal-aging literature) with weaker second-shell bonds.
struct BondCountingParameters {
  std::array<double, 3> eps1{-0.60, -0.55, -0.58};
  std::array<double, 3> eps2{-0.30, -0.275, -0.29};
};

/// Tabulated microkinetic ("bond-counting") energy backend — the paper's
/// *first approach* to AKMC parameterization (Sec. 1): interaction
/// parameters are fixed tabulated pair energies instead of on-the-fly
/// potential evaluations. Fast and mesoscale-friendly, but physically
/// limited — exactly the trade-off TensorKMC's NNP backend removes.
///
/// E_atom = 1/2 [ sum over 1NN bonds eps1(s_i, s_j)
///              + sum over 2NN bonds eps2(s_i, s_j) ].
///
/// A site kernel behind the TET driver like every other backend, so it
/// slots into the serial and parallel engines unchanged.
class BondCountingModel final : public TetEnergyModel {
 public:
  using Parameters = BondCountingParameters;

  BondCountingModel(const Cet& cet, const Net& net, Parameters params = {});

  const char* name() const override { return "bond-counting"; }

  const Parameters& parameters() const { return params_; }

 private:
  void atomEnergies(std::span<Vet* const> vets, int numFinal,
                    double* out) override;
  double bondEnergy(int distIndex, Species a, Species b) const;
  double siteEnergy(const Vet& vet, int state, int site) const;

  const Net& net_;
  Parameters params_;
  int firstShellIndex_ = -1;
  int secondShellIndex_ = -1;
};

}  // namespace tkmc
