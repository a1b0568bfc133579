// Fig. 11 reproduction: serial per-step performance of TensorKMC under
// the three software configurations of the paper, at both cutoffs.
//
//   x86     — features computed sequentially (MPE-style loop, double),
//             energies through the layer-wise FusedConv2D path.
//   SW      — features sequential, energies through the per-layer fused
//             operator (TensorFlow + SWDNN analogue).
//   SW(opt) — features on the CPE grid (fast feature operator), energies
//             through the big-fusion operator.
//
// The unit of work is one full vacancy propensity refresh: gather VET,
// build features for 1 + 8 states, evaluate all region-atom energies.
// Paper headline: SW(opt) ~ 11x faster than x86 overall, features ~14x,
// energies ~15x; shorter cutoff (5.8 A) shrinks every component.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/table_writer.hpp"
#include "kmc/eam_energy_model.hpp"
#include "kmc/event_catalog/event_catalog.hpp"
#include "kmc/rate_calculator.hpp"
#include "common/telemetry/telemetry.hpp"
#include "nnp/conv_stack.hpp"
#include "sunway/bigfusion_operator.hpp"
#include "sunway/feature_operator.hpp"
#include "sunway/perf_model.hpp"
#include "tabulation/region_features.hpp"

using namespace tkmc;

namespace {

struct Timings {
  double featureMs = 0.0;
  double energyMs = 0.0;
  double totalMs() const { return featureMs + energyMs; }
};

Timings measure(const Cet& cet, const Net& net, const FeatureTable& table,
                const Network::Snapshot& snapshot, const LatticeState& state,
                Vec3i center, int mode, int reps) {
  const int numStates = 1 + kNumJumpDirections;
  const int m = numStates * cet.nRegion();
  const ConvStack stack(snapshot);
  CpeGrid grid;
  FeatureOperator featureOp(net, table, grid);
  BigFusionOperator fusionOp(snapshot, grid, 32);
  if (mode == 2) fusionOp.loadModel();
  const RegionFeatures serialFeatures(net, table);

  std::vector<float> featuresF(static_cast<std::size_t>(m) * 64);
  std::vector<double> featuresD;
  std::vector<float> energiesF(static_cast<std::size_t>(m));

  Timings t;
  Vet vet = Vet::gather(cet, state, center);
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    if (mode == 2) {
      featureOp.compute(vet, kNumJumpDirections, featuresF);
    } else {
      serialFeatures.computeStates(vet, kNumJumpDirections, featuresD);
      for (std::size_t i = 0; i < featuresD.size(); ++i)
        featuresF[i] = static_cast<float>(featuresD[i]);
    }
    t.featureMs += sw.milliseconds();
    sw.reset();
    if (mode == 2) {
      fusionOp.forward(featuresF.data(), m, energiesF.data());
    } else if (mode == 1) {
      // SWDNN-style FusedConv2D per layer.
      stack.forward(ConvStack::Mode::kFusedLayer, featuresF.data(), m,
                    energiesF.data());
    } else {
      // libtensorflow on the host CPU: vectorized GEMM, separate
      // bias/ReLU passes.
      stack.forward(ConvStack::Mode::kMatmulSimd, featuresF.data(), m,
                    energiesF.data());
    }
    t.energyMs += sw.milliseconds();
  }
  t.featureMs /= reps;
  t.energyMs /= reps;
  return t;
}

void runCutoff(double cutoff, const Network::Snapshot& snapshot) {
  const Cet cet(2.87, cutoff);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  const int boxCells = 24;
  LatticeState state(BccLattice(boxCells, boxCells, boxCells, 2.87));
  Rng rng(11);
  state.randomAlloy(0.0134, 0, rng);
  const Vec3i center{boxCells, boxCells, boxCells};
  state.setSpeciesAt(center, Species::kVacancy);

  const int reps = 4;
  const Timings x86 = measure(cet, net, table, snapshot, state, center, 0, reps);
  const Timings sw = measure(cet, net, table, snapshot, state, center, 1, reps);
  const Timings swOpt =
      measure(cet, net, table, snapshot, state, center, 2, reps);

  std::printf("\nr_cut = %.1f A (N_region = %d, N_local = %d)\n", cutoff,
              cet.nRegion(), cet.nLocal());
  TableWriter out({"configuration", "feature (ms)", "energy (ms)",
                   "overall (ms)", "overall speedup vs x86"});
  auto row = [&](const char* name, const Timings& t) {
    out.addRow({name, TableWriter::num(t.featureMs, 3),
                TableWriter::num(t.energyMs, 3),
                TableWriter::num(t.totalMs(), 3),
                TableWriter::num(x86.totalMs() / t.totalMs(), 2) + "x"});
  };
  row("x86 (serial feat + layerwise)", x86);
  row("SW (serial feat + fused op)", sw);
  row("SW(opt) (CPE feat + big-fusion)", swOpt);
  out.print();

  // Roofline-modeled CG times for the two energy operators, from their
  // measured traffic — the hardware asymmetry a single host core cannot
  // exhibit directly (see Fig. 9/10 benches for the operator analysis).
  const int m = (1 + kNumJumpDirections) * cet.nRegion();
  const ConvStack stack(snapshot);
  Traffic layerwise;
  for (int layer = 0; layer < stack.numLayers(); ++layer)
    layerwise += stack.layerTraffic(layer, m, /*fused=*/true);
  Traffic fused;
  fused.mainReadBytes = static_cast<std::uint64_t>(m) * 64 * sizeof(float);
  fused.mainWriteBytes = static_cast<std::uint64_t>(m) * sizeof(float);
  fused.flops = layerwise.flops;
  const PerfModel perf;
  std::printf("roofline-modeled CG energy time: fused %.3f ms vs big-fusion "
              "%.3f ms (%.1fx)\n",
              perf.modeledSeconds(layerwise) * 1e3,
              perf.modeledSeconds(fused) * 1e3,
              perf.modeledSeconds(layerwise) / perf.modeledSeconds(fused));

  // Measurements above run with telemetry off (the timings are the
  // product); the snapshot is filled afterwards.
  telemetry::ScopedEnable record;
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "bench.fig11.rc%.1f", cutoff);
  auto publish = [&](const char* cfg, const Timings& t) {
    reg.gauge(std::string(prefix) + "." + cfg + ".feature_ms")
        .set(t.featureMs);
    reg.gauge(std::string(prefix) + "." + cfg + ".energy_ms").set(t.energyMs);
    reg.gauge(std::string(prefix) + "." + cfg + ".total_ms").set(t.totalMs());
  };
  publish("x86", x86);
  publish("sw", sw);
  publish("sw_opt", swOpt);
  reg.gauge(std::string(prefix) + ".speedup").set(x86.totalMs() /
                                                  swOpt.totalMs());
}

// Paired, order-alternating estimate of how much slower `arm` runs than
// `reference`, both returning the milliseconds one chunk of identical
// work took. Machine drift on a shared host swamps a small per-call
// delta over whole arms, but adjacent chunks see the same conditions, so
// the per-round ratio is clean and the median sheds the rounds where
// preemption hit only one arm. The arm order flips every round so a
// systematic first/second-position bias (frequency ramps, timer
// interrupts phase-locked to the round) hits both arms equally.
struct PairedOverhead {
  double frac = 0.0;  // max(0, median(arm / reference) - 1)
  double bestReferenceMs = 1e300;
  double bestArmMs = 1e300;
};

PairedOverhead measurePairedOverhead(const std::function<double()>& reference,
                                     const std::function<double()>& arm,
                                     int rounds) {
  reference();  // warm both arms so neither pays first-touch costs
  arm();
  PairedOverhead result;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(rounds));
  for (int round = 0; round < rounds; ++round) {
    double r, a;
    if (round % 2 == 0) {
      r = reference();
      a = arm();
    } else {
      a = arm();
      r = reference();
    }
    ratios.push_back(a / r);
    result.bestReferenceMs = std::min(result.bestReferenceMs, r);
    result.bestArmMs = std::min(result.bestArmMs, a);
  }
  std::nth_element(ratios.begin(), ratios.begin() + rounds / 2, ratios.end());
  result.frac =
      std::max(0.0, ratios[static_cast<std::size_t>(rounds / 2)] - 1.0);
  return result;
}

// Flight-recorder overhead: the blackbox ring is always on in
// production, so its cost rides on every propensity refresh. Time the
// SW(opt) refresh loop with the recorder enabled vs disabled, issuing
// the same record() calls the serial engine makes per step (one refresh
// event + one KMC event), with the paired estimator above, one refresh
// per timed chunk. Acceptance: <= 5%; `bench.fig11.blackbox_overhead_pct` is
// gated by its own rule in tolerances.json, ahead of the *overhead_pct*
// exemption.
double measureOverheadPct(const Network::Snapshot& snapshot) {
  const Cet cet(2.87, kDefaultCutoff);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  const int boxCells = 24;
  LatticeState state(BccLattice(boxCells, boxCells, boxCells, 2.87));
  Rng rng(11);
  state.randomAlloy(0.0134, 0, rng);
  const Vec3i center{boxCells, boxCells, boxCells};
  state.setSpeciesAt(center, Species::kVacancy);

  const int numStates = 1 + kNumJumpDirections;
  const int m = numStates * cet.nRegion();
  CpeGrid grid;
  FeatureOperator featureOp(net, table, grid);
  BigFusionOperator fusionOp(snapshot, grid, 32);
  fusionOp.loadModel();
  std::vector<float> featuresF(static_cast<std::size_t>(m) * 64);
  std::vector<float> energiesF(static_cast<std::size_t>(m));
  const Vet vet = Vet::gather(cet, state, center);

  telemetry::FlightRecorder& rec = telemetry::flightRecorder();
  rec.configureRanks(1);
  const bool wasEnabled = rec.enabled();
  auto refresh = [&](bool enabled) {
    rec.setEnabled(enabled);
    Stopwatch sw;
    featureOp.compute(vet, kNumJumpDirections, featuresF);
    fusionOp.forward(featuresF.data(), m, energiesF.data());
    rec.record(0, telemetry::BlackboxEventType::kPropensityRefresh, 0,
               static_cast<std::uint64_t>(m));
    rec.record(0, telemetry::BlackboxEventType::kKmcEvent, 0, 0, 0);
    return sw.milliseconds();
  };
  const int rounds = 61;
  const PairedOverhead overhead = measurePairedOverhead(
      [&] { return refresh(false); }, [&] { return refresh(true); }, rounds);
  rec.setEnabled(wasEnabled);

  const double pct = overhead.frac * 100.0;
  std::printf("\nflight-recorder overhead on SW(opt) refresh: best %.3f ms "
              "off vs best %.3f ms on per refresh (median ratio over %d "
              "rounds) -> %.2f%% (acceptance: <= 5%%)\n",
              overhead.bestReferenceMs, overhead.bestArmMs, rounds, pct);
  telemetry::ScopedEnable record;
  telemetry::metrics().gauge("bench.fig11.blackbox_overhead_pct").set(pct);
  return pct;
}

// Catalog-dispatch overhead: the serial/parallel engines now reach the
// rate law through EventCatalog::evaluateChecked() (virtual dispatch +
// the catalog.rate_nan fault probe) instead of calling computeRates()
// directly. Time both on the same environment and report the relative
// cost as `bench.fig11.catalog_dispatch_overhead_frac`, gated at
// <= 3% against the hardcoded path (ISSUE 9) — unlike the timing
// gauges this one IS compared by scripts/bench_gate.py, because it is
// a dimensionless ratio of two loops in the same process.
double measureCatalogDispatchOverhead() {
  const Cet cet(2.87, 4.0);
  const Net net(cet);
  const EamPotential eam(4.0);
  EamEnergyModel model(cet, net, eam);
  const int boxCells = 12;
  LatticeState state(BccLattice(boxCells, boxCells, boxCells, 2.87));
  Rng rng(13);
  state.randomAlloy(0.15, 0, rng);
  const Vec3i center{boxCells, boxCells, boxCells};
  state.setSpeciesAt(center, Species::kVacancy);
  const Vet vet = Vet::gather(cet, state, center);

  const EventCatalog& catalog = defaultEventCatalog();
  const double temperature = 573.0;
  // The unit of work is exactly what the hardcoded engine did per dirty
  // vacancy: evaluate the 1 + 8 state energies, then the rate law. The
  // catalog arm swaps the direct computeRates() call for the engines'
  // evaluateChecked() path (virtual dispatch + the catalog.rate_nan
  // fault probe) on top of the identical energy work.
  const int chunk = 200;
  volatile double sink = 0.0;  // keep the loops from folding away
  auto timeDirect = [&] {
    Stopwatch sw;
    for (int rep = 0; rep < chunk; ++rep) {
      const std::vector<double> energies =
          model.stateEnergies(state, center, kNumJumpDirections);
      sink = sink + computeRates(vet, energies, temperature).total;
    }
    return sw.milliseconds();
  };
  auto timeCatalog = [&] {
    Stopwatch sw;
    for (int rep = 0; rep < chunk; ++rep) {
      const std::vector<double> energies =
          model.stateEnergies(state, center, kNumJumpDirections);
      sink = sink +
             catalog.evaluateChecked(0, vet, energies, temperature).total;
    }
    return sw.milliseconds();
  };
  const int rounds = 31;
  const PairedOverhead overhead =
      measurePairedOverhead(timeDirect, timeCatalog, rounds);
  std::printf("\ncatalog dispatch overhead: best direct %.3f ms vs best "
              "catalog %.3f ms per %d-refresh chunk (median ratio over "
              "%d rounds) -> %.4f (acceptance: <= 0.03)\n",
              overhead.bestReferenceMs, overhead.bestArmMs, chunk, rounds,
              overhead.frac);
  telemetry::ScopedEnable record;
  telemetry::metrics()
      .gauge("bench.fig11.catalog_dispatch_overhead_frac")
      .set(overhead.frac);
  return overhead.frac;
}

}  // namespace

int main() {
  std::printf("Fig. 11 — serial TensorKMC configurations "
              "(per propensity refresh; paper: SW(opt) ~= 11x x86)\n");
  Network network({64, 128, 128, 128, 64, 1});
  Rng rng(5);
  network.initHe(rng);
  const auto snapshot = network.foldedSnapshot();
  runCutoff(kDefaultCutoff, snapshot);
  runCutoff(kShortCutoff, snapshot);
  measureOverheadPct(snapshot);
  measureCatalogDispatchOverhead();
  telemetry::metrics().writeJson("BENCH_fig11_serial.metrics.json");
  std::printf("\nwrote BENCH_fig11_serial.metrics.json\n");
  return 0;
}
