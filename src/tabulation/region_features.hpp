#pragma once

#include <span>
#include <vector>

#include "tabulation/feature_table.hpp"
#include "tabulation/net.hpp"
#include "tabulation/vet.hpp"

namespace tkmc {

/// CPU (MPE-style) evaluation of the tabulated descriptor (Eq. 6) for a
/// vacancy system.
///
/// Computes, for every site of the jumping region, the feature vector
/// f[element][pq] = sum over neighbours of TABLE(distance, p, q), reading
/// species from the VET. This is the serial reference path of Fig. 11;
/// the CPE-parallel version lives in sunway/feature_operator.hpp.
class RegionFeatures {
 public:
  RegionFeatures(const Net& net, const FeatureTable& table);

  /// Feature dimension per atom (= numPq * kNumElements).
  int dim() const { return table_.numPq() * kNumElements; }

  /// Features of every region site for the state encoded by `vet`:
  /// output is [nRegion][dim()] row-major (resized as needed).
  void compute(const Vet& vet, std::vector<double>& out) const;

  /// Same result as compute() but evaluating exp(-(r/p)^q) directly for
  /// every neighbour instead of reading the precomputed TABLE — the
  /// Eq. 5 vs Eq. 6 ablation. Identical accumulation order, so results
  /// are bit-equal; only the cost differs.
  void computeDirect(const Vet& vet, const std::vector<double>& distances,
                     const std::vector<PqSet>& pqSets,
                     std::vector<double>& out) const;

  /// Features of the listed region sites only: row i of `out`
  /// ([sites.size()][dim()], overwritten) is bit-equal to row sites[i]
  /// of compute(), accumulated in the same NET order.
  void computeSites(const Vet& vet, std::span<const int> sites,
                    double* out) const;

  /// Features for the initial state plus the `numFinal` final states
  /// obtained by swapping VET[0] with VET[1 + k]. Output layout:
  /// [1 + numFinal][nRegion][dim()]; every row of every state is
  /// computed, as the serial Fig. 11 configurations do. `vet` is
  /// restored before returning.
  void computeStates(Vet& vet, int numFinal, std::vector<double>& out) const;

 private:
  // Zeroes `f` ([dim()]) and accumulates region site `site`'s features.
  void accumulateSite(const Vet& vet, int site, double* f) const;

  const Net& net_;
  const FeatureTable& table_;
};

}  // namespace tkmc
