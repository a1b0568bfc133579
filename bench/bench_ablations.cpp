// Ablations of the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//
//   1. feature tabulation (Eq. 6) vs direct exp evaluation (Eq. 5);
//   2. vacancy cache on vs off (energy evaluations and wall time);
//   3. tree vs linear propensity selection at growing vacancy counts;
//   4. TensorKMC engine vs the OpenKMC cache-all baseline at equal
//      physics (EAM backend, same box);
//   5. the double-precision MPE energy path vs the single-precision CPE
//      pipeline (fast feature operator + big-fusion) inside the engine;
//      the CPE pipeline runs behind its row memo, so its timing is
//      mostly the memo's, and the memo's hit counts are printed with it.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table_writer.hpp"
#include "kmc/eam_energy_model.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "kmc/propensity_tree.hpp"
#include "kmc/serial_engine.hpp"
#include "openkmc/openkmc_engine.hpp"
#include "sunway/sunway_energy_model.hpp"
#include "tabulation/region_features.hpp"

using namespace tkmc;

namespace {

constexpr double kCutoff = 4.0;

void featureTabulationAblation() {
  std::printf("1) feature evaluation: precomputed TABLE (Eq. 6) vs direct "
              "exp (Eq. 5)\n");
  const Cet cet(2.87, kDefaultCutoff);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  const RegionFeatures rf(net, table);
  LatticeState state(BccLattice(24, 24, 24, 2.87));
  Rng rng(3);
  state.randomAlloy(0.0134, 0, rng);
  state.setSpeciesAt({24, 24, 24}, Species::kVacancy);
  const Vet vet = Vet::gather(cet, state, {24, 24, 24});

  std::vector<double> out;
  const int reps = 40;
  rf.compute(vet, out);  // warm-up
  Stopwatch sw;
  for (int i = 0; i < reps; ++i) rf.compute(vet, out);
  const double tabulated = sw.milliseconds() / reps;
  rf.computeDirect(vet, net.distances(), standardPqSets(), out);
  sw.reset();
  for (int i = 0; i < reps; ++i)
    rf.computeDirect(vet, net.distances(), standardPqSets(), out);
  const double direct = sw.milliseconds() / reps;
  std::printf("   tabulated %.3f ms, direct %.3f ms -> table is %.1fx "
              "faster (results bit-identical)\n\n",
              tabulated, direct, direct / tabulated);
}

void vacancyCacheAblation() {
  std::printf("2) vacancy cache on vs off (500 events, 6 vacancies)\n");
  auto run = [&](bool cache, double& ms, std::uint64_t& evals) {
    const Cet cet(2.87, kCutoff);
    const Net net(cet);
    const EamPotential eam(kCutoff);
    EamEnergyModel model(cet, net, eam);
    LatticeState state(BccLattice(16, 16, 16, 2.87));
    Rng rng(9);
    state.randomAlloy(0.0134, 6, rng);
    KmcConfig cfg;
    cfg.seed = 77;
    cfg.tEnd = 1e300;
    cfg.useVacancyCache = cache;
    SerialEngine engine(state, model, cet, cfg);
    Stopwatch sw;
    for (int i = 0; i < 500; ++i) engine.step();
    ms = sw.milliseconds();
    evals = engine.energyEvaluations();
  };
  double cacheMs = 0, directMs = 0;
  std::uint64_t cacheEvals = 0, directEvals = 0;
  run(true, cacheMs, cacheEvals);
  run(false, directMs, directEvals);
  std::printf("   cache on : %8.1f ms, %llu energy evaluations\n",
              cacheMs, static_cast<unsigned long long>(cacheEvals));
  std::printf("   cache off: %8.1f ms, %llu energy evaluations\n",
              directMs, static_cast<unsigned long long>(directEvals));
  std::printf("   -> %.1fx fewer evaluations, %.1fx faster, identical "
              "trajectory (tested)\n\n",
              static_cast<double>(directEvals) / static_cast<double>(cacheEvals),
              directMs / cacheMs);
}

void propensityTreeAblation() {
  std::printf("3) propensity selection: sum-tree vs linear scan\n");
  TableWriter table({"vacancies", "tree (ns/select)", "linear (ns/select)",
                     "speedup"});
  Rng rng(5);
  for (int n : {1000, 10000, 100000, 1000000}) {
    PropensityTree tree(n);
    for (int i = 0; i < n; ++i) tree.update(i, rng.uniform() + 0.01);
    const int reps = 20000;
    int sink = 0;
    Stopwatch sw;
    for (int i = 0; i < reps; ++i)
      sink += tree.select(rng.uniform() * tree.total());
    const double treeNs = sw.seconds() * 1e9 / reps;
    // Fewer reps for the linear scan at large n (it is the point).
    const int linReps = n >= 100000 ? 200 : 2000;
    sw.reset();
    for (int i = 0; i < linReps; ++i)
      sink += tree.selectLinear(rng.uniform() * tree.total());
    const double linNs = sw.seconds() * 1e9 / linReps;
    table.addRow({std::to_string(n), TableWriter::num(treeNs, 0),
                  TableWriter::num(linNs, 0),
                  TableWriter::num(linNs / treeNs, 1) + "x"});
    benchmark::DoNotOptimize(sink);
  }
  table.print();
  std::printf("   (the paper's \"tree strategy for propensity update\", "
              "Sec. 4.4)\n\n");
}

void baselineEngineComparison() {
  std::printf("4) TensorKMC (TET + cache) vs OpenKMC cache-all baseline, "
              "same EAM physics\n");
  const int cells = 14;
  const int events = 300;
  double tensorMs = 0, openMs = 0;
  std::size_t openBytes = 0;
  {
    const Cet cet(2.87, kCutoff);
    const Net net(cet);
    const EamPotential eam(kCutoff);
    EamEnergyModel model(cet, net, eam);
    LatticeState state(BccLattice(cells, cells, cells, 2.87));
    Rng rng(4);
    state.randomAlloy(0.0134, 3, rng);
    KmcConfig cfg;
    cfg.seed = 11;
    cfg.tEnd = 1e300;
    SerialEngine engine(state, model, cet, cfg);
    Stopwatch sw;
    for (int i = 0; i < events; ++i) engine.step();
    tensorMs = sw.milliseconds();
  }
  {
    const EamPotential eam(kCutoff);
    LatticeState state(BccLattice(cells, cells, cells, 2.87));
    Rng rng(4);
    state.randomAlloy(0.0134, 3, rng);
    OpenKmcEngine::Config cfg;
    cfg.seed = 11;
    OpenKmcEngine engine(state, eam, cfg);
    openBytes = engine.arrayBytes();
    Stopwatch sw;
    for (int i = 0; i < events; ++i) engine.step();
    openMs = sw.milliseconds();
  }
  std::printf("   TensorKMC: %8.1f ms for %d events\n", tensorMs, events);
  std::printf("   OpenKMC  : %8.1f ms for %d events + %.1f MB cache-all "
              "arrays\n",
              openMs, events, static_cast<double>(openBytes) / (1 << 20));
  std::printf("   -> per-atom arrays grow with the box; the vacancy cache "
              "grows with the defect count only (Table 1 bench)\n");
}

void precisionBackendComparison() {
  std::printf("\n5) NNP engine backends: double-precision MPE path vs "
              "single-precision CPE pipeline\n");
  const Cet cet(2.87, kCutoff);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  Network network({64, 32, 32, 1});
  Rng rng(6);
  network.initHe(rng);
  auto run = [&](EnergyModel& model, int events) {
    LatticeState state(BccLattice(16, 16, 16, 2.87));
    Rng arng(8);
    state.randomAlloy(0.0134, 4, arng);
    KmcConfig cfg;
    cfg.seed = 15;
    cfg.tEnd = 1e300;
    SerialEngine engine(state, model, cet, cfg);
    Stopwatch sw;
    for (int i = 0; i < events; ++i) engine.step();
    return sw.milliseconds();
  };
  NnpEnergyModel cpu(cet, net, table, network);
  SunwayEnergyModel sunway(cet, net, table, network);
  const int events = 200;
  const double cpuMs = run(cpu, events);
  const double sunwayMs = run(sunway, events);
  std::printf("   double (MPE-style)   : %8.1f ms for %d events\n", cpuMs,
              events);
  const SunwayEnergyModel::MemoStats& memo = sunway.memoStats();
  std::printf("   float (CPE pipeline, with its row memo): %8.1f ms for %d "
              "events; memo %llu row hits, %llu misses (%.1f%% hit)\n",
              sunwayMs, events, static_cast<unsigned long long>(memo.hits),
              static_cast<unsigned long long>(memo.misses),
              100.0 * static_cast<double>(memo.hits) /
                  static_cast<double>(memo.hits + memo.misses));
  std::printf("   trajectories statistically equivalent; energies agree to "
              "single precision (tested)\n");
}

}  // namespace

int main() {
  std::printf("TensorKMC design ablations\n\n");
  featureTabulationAblation();
  vacancyCacheAblation();
  propensityTreeAblation();
  baselineEngineComparison();
  precisionBackendComparison();
  return 0;
}
