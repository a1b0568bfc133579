#pragma once

#include <array>
#include <vector>

#include "nnp/dataset.hpp"
#include "nnp/descriptor.hpp"
#include "nnp/network.hpp"

namespace tkmc {

/// One fitting sample: precomputed per-atom features plus the reference
/// total energy. `energy` is the network's target (reference minus the
/// composition baseline); `baseline` is added back for raw-energy parity
/// metrics.
struct TrainSample {
  std::vector<double> features;  // [nAtoms][descriptor dim]
  int nAtoms = 0;
  double energy = 0.0;           // fitting target (residual), eV
  double baseline = 0.0;         // composition baseline, eV
};

/// Per-species reference energies e0, fitted by least squares so that
/// sum_i e0(species_i) explains the composition-driven part of the total
/// energy. The network then learns only the environment-dependent
/// residual — which is all that survives in AKMC energy *differences*
/// (E_f - E_i involves the same atoms, so the baseline cancels exactly).
struct SpeciesBaseline {
  std::array<double, kNumElements> e0{};

  double evaluate(const Structure& s) const;

  /// Least-squares fit of e0 from labelled structures.
  static SpeciesBaseline fit(const std::vector<LabeledStructure>& data);
};

/// Builds a TrainSample from a labelled structure. When a baseline is
/// given, the network target is the residual energy.
TrainSample makeSample(const Descriptor& descriptor, const LabeledStructure& ls,
                       const SpeciesBaseline* baseline = nullptr);

/// Regression metrics used in the Fig. 7 parity analysis.
struct Metrics {
  double maePerAtom = 0.0;  // mean absolute error of energy per atom, eV
  double r2 = 0.0;          // coefficient of determination
};

/// Adam trainer for the atomistic network on total-energy labels.
///
/// The loss is the squared per-atom energy error averaged over samples,
/// matching how the paper reports its 2.9 meV/atom MAE. Standardization
/// of the input features is fitted from the training set and stored in
/// the network so that inference needs no side-band statistics.
///
/// A step runs the whole sample through detail::denseTile: one batched
/// forward that keeps every layer's activations, then per layer a
/// weight-gradient and a data-gradient product (DESIGN §21, "Training
/// through the tile kernel"). Every sample must have nAtoms > 0 and
/// nAtoms * inputDim() features; the entry points throw Error otherwise.
class Trainer {
 public:
  struct Config {
    int epochs = 200;
    double learningRate = 3e-3;
    double decay = 0.999;       // multiplicative LR decay per epoch
    std::uint64_t seed = 7;
  };

  /// The network must have a single output (the atomic energy).
  Trainer(Network& network, Config config);

  /// Computes per-feature mean/std from the samples and installs the
  /// transform into the network. Call before train().
  void fitStandardization(const std::vector<TrainSample>& samples);

  /// Runs the full schedule; returns the final epoch's mean loss
  /// (eV^2 per atom^2).
  double train(const std::vector<TrainSample>& samples);

  /// One epoch over the samples in random order; returns mean loss.
  double epoch(const std::vector<TrainSample>& samples);

  /// Energy metrics of the current network on a sample set.
  static Metrics evaluateEnergy(const Network& network,
                                const std::vector<TrainSample>& samples);

  /// Force metrics: compares NNP forces (analytic, via the descriptor
  /// chain rule) against reference forces, componentwise.
  static Metrics evaluateForces(const Network& network,
                                const Descriptor& descriptor,
                                const std::vector<LabeledStructure>& data);

 private:
  struct AdamState {
    std::vector<double> m;
    std::vector<double> v;
  };

  void step(const TrainSample& sample, double& lossOut);

  Network& network_;
  Config config_;
  Rng rng_;
  double lr_;
  long steps_ = 0;
  std::vector<AdamState> weightState_;
  std::vector<AdamState> biasState_;
  std::vector<std::vector<double>> weightGrads_;
  std::vector<std::vector<double>> biasGrads_;
  // Step scratch, resized per sample (capacity only grows): channel-major
  // weights of every layer; every layer boundary's [nAtoms][width]
  // activations, back to back; the output gradient [nAtoms][out], its
  // transpose [out][nAtoms] and the input gradient [nAtoms][in]; zeros
  // to start each gradient sum from.
  std::vector<double> channelMajor_;
  std::vector<double> activations_;
  std::vector<double> grad_;
  std::vector<double> gradT_;
  std::vector<double> prevGrad_;
  std::vector<double> zeros_;
};

}  // namespace tkmc
