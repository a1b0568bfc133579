#include "nnp/descriptor.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tkmc {

Descriptor::Descriptor(std::vector<PqSet> pqSets, double cutoff)
    : pq_(std::move(pqSets)), cutoff_(cutoff) {
  require(!pq_.empty(), "descriptor needs at least one (p,q) set");
  require(cutoff > 0.0, "descriptor cutoff must be positive");
}

std::vector<double> Descriptor::compute(const Structure& s) const {
  const std::size_t n = s.size();
  const int d = dim();
  std::vector<double> features(n * static_cast<std::size_t>(d), 0.0);
  // Each unordered pair is evaluated once and added to both atoms. Every
  // atom still sums its partners in ascending order, and minimum-image r
  // is symmetric bit for bit, so the features equal a per-atom loop's.
  for (std::size_t i = 0; i < n; ++i) {
    double* fi = features.data() + i * static_cast<std::size_t>(d);
    const int blockI = static_cast<int>(s.species[i]) * numPq();
    for (std::size_t j = i + 1; j < n; ++j) {
      const double r = s.displacement(i, j).norm();
      if (r >= cutoff_) continue;
      double* fj = features.data() + j * static_cast<std::size_t>(d);
      const int blockJ = static_cast<int>(s.species[j]) * numPq();
      for (int k = 0; k < numPq(); ++k) {
        const double term =
            FeatureTable::term(r, pq_[static_cast<std::size_t>(k)]);
        fi[blockJ + k] += term;
        fj[blockI + k] += term;
      }
    }
  }
  return features;
}

double Descriptor::termDerivative(double r, int pqIndex) const {
  const PqSet& pq = pq_[static_cast<std::size_t>(pqIndex)];
  const double ratio = r / pq.p;
  const double powed = std::pow(ratio, pq.q);
  return -pq.q / r * powed * std::exp(-powed);
}

std::vector<Vec3d> Descriptor::forces(
    const Structure& s, const std::vector<double>& featureGradients) const {
  const std::size_t n = s.size();
  require(featureGradients.size() == n * static_cast<std::size_t>(dim()),
          "feature gradient array has wrong size");
  std::vector<Vec3d> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const Vec3d dvec = s.displacement(i, j);  // i -> j
      const double r = dvec.norm();
      if (r >= cutoff_) continue;
      // Moving atom i away from j increases r_ij; both atoms' feature
      // vectors depend on it: feat_i[e_j] and feat_j[e_i].
      const double* gi = featureGradients.data() + i * static_cast<std::size_t>(dim());
      const double* gj = featureGradients.data() + j * static_cast<std::size_t>(dim());
      const int blockJ = static_cast<int>(s.species[j]) * numPq();
      const int blockI = static_cast<int>(s.species[i]) * numPq();
      double dEdr = 0.0;
      for (int k = 0; k < numPq(); ++k) {
        const double dTerm = termDerivative(r, k);
        dEdr += gi[blockJ + k] * dTerm + gj[blockI + k] * dTerm;
      }
      // Force on i = -dE/dx_i; dr/dx_i = -(dvec)/r.
      const double scale = dEdr / r;
      out[i] = out[i] + dvec * scale;
    }
  }
  return out;
}

}  // namespace tkmc
