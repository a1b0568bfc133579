// Batched vacancy-system evaluation pipeline: per-system cost versus
// batch size.
//
// The per-system NNP dispatch re-DMAs the feature TABLE and the packed
// NET into every CPE's LDM, pays two kernel launches per vacancy system,
// and deals only its hop-local rows (nRegion for the initial state plus
// each final state's affected sites, 235 at 4.0 A) to the big-fusion
// mesh, so most of the 64 simulated CPEs idle per refresh. The batched
// pipeline keeps the TABLE and NET LDM-resident across systems and
// concatenates the feature matrices of the whole batch into one forward,
// so fixed dispatch costs amortize and the tile count scales with the
// batch.
//
// Cost is the modeled SW26010 time (CpeGrid::collectModeledSeconds:
// launch latency + per-run critical path), the same basis as the
// Fig. 9/11 reproductions — host wall-clock of the functional simulator
// runs all 64 CPEs on however many host cores exist and therefore cannot
// express launch amortization or mesh occupancy. This bench evaluates
// the same 512 vacancy systems at batch sizes 1/8/64/512 and reports
// per-system modeled cost and main-memory traffic at each size; the
// headline is the batch-64 speedup over batch-1 (acceptance: >= 2x,
// monotone decrease from 1 to 512).
//
// It drives the operators SunwayEnergyModel dispatches on a memo miss
// (FeatureOperator over RowPlan::hopLocal, then BigFusionOperator)
// directly: the model's row memo would answer every repeated system
// without a launch, so through the model the bench would measure the
// memo, not the pipeline.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/stopwatch.hpp"
#include "common/table_writer.hpp"
#include "common/telemetry/telemetry.hpp"
#include "sunway/bigfusion_operator.hpp"
#include "sunway/feature_operator.hpp"

using namespace tkmc;

namespace {

constexpr int kTotalSystems = 512;  // evaluated at every batch size
const int kBatchSizes[] = {1, 8, 64, 512};

}  // namespace

int main() {
  Cet cet(2.87, 4.0);
  Net net(cet);
  FeatureTable table(net.distances(), standardPqSets());
  Network network({table.numPq() * kNumElements, 16, 16, 1});
  Rng rng(11);
  network.initHe(rng);

  BccLattice lattice(16, 16, 16, 2.87);
  LatticeState state(lattice);
  Rng alloyRng(12);
  state.randomAlloy(0.15, 24, alloyRng);

  CpeGrid grid;
  FeatureOperator features(net, table, grid, RowPlan::hopLocal(net));
  BigFusionOperator fusion(network.foldedSnapshot(), grid);
  fusion.loadModel();
  std::vector<float> featureBuffer;
  std::vector<float> energies;
  auto dispatch = [&](std::span<const Vet* const> vets) {
    features.computeBatch(vets, kNumJumpDirections, featureBuffer);
    energies.resize(features.rows().systemRows(kNumJumpDirections) *
                    vets.size());
    fusion.forward(featureBuffer.data(), static_cast<int>(energies.size()),
                   energies.data());
  };

  // A pool of distinct vacancy systems; batches cycle through it so
  // every batch size sees identical inputs in identical order.
  std::vector<Vet> pool;
  for (const Vec3i& vac : state.vacancies())
    pool.push_back(Vet::gather(cet, state, lattice.wrap(vac)));

  std::vector<Vet> systems;
  systems.reserve(kTotalSystems);
  for (int i = 0; i < kTotalSystems; ++i)
    systems.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);

  // Warm-up: page in buffers and the model image.
  {
    std::vector<const Vet*> ptrs;
    for (int i = 0; i < 64; ++i)
      ptrs.push_back(&systems[static_cast<std::size_t>(i)]);
    dispatch(ptrs);
  }
  grid.collectTraffic();
  grid.collectModeledSeconds();

  TableWriter tableOut({"batch size", "launches", "per-system us (modeled)",
                        "per-system main KB", "host us", "speedup vs b=1"});
  std::vector<double> perSystemUs;    // modeled — the acceptance metric
  std::vector<double> perSystemBytes;
  for (const int batch : kBatchSizes) {
    const int dispatches = kTotalSystems / batch;
    const std::uint64_t launchesBefore = grid.launchCount();
    // The modeled cost is deterministic; host wall time (informational)
    // takes the best of 3 passes to filter scheduler noise.
    double bestHost = 1e300;
    double modeled = 0.0;
    Traffic traffic;
    for (int rep = 0; rep < 3; ++rep) {
      grid.collectTraffic();
      grid.collectModeledSeconds();
      Stopwatch sw;
      for (int d = 0; d < dispatches; ++d) {
        std::vector<const Vet*> ptrs;
        ptrs.reserve(static_cast<std::size_t>(batch));
        for (int i = 0; i < batch; ++i)
          ptrs.push_back(&systems[static_cast<std::size_t>(d * batch + i)]);
        dispatch(ptrs);
      }
      const double elapsed = sw.seconds();
      if (elapsed < bestHost) bestHost = elapsed;
      modeled = grid.collectModeledSeconds();
      traffic = grid.collectTraffic();
    }
    const std::uint64_t launches =
        (grid.launchCount() - launchesBefore) / 3;
    const double us = modeled / kTotalSystems * 1e6;
    const double hostUs = bestHost / kTotalSystems * 1e6;
    const double kb =
        static_cast<double>(traffic.mainBytes()) / kTotalSystems / 1024.0;
    perSystemUs.push_back(us);
    perSystemBytes.push_back(kb * 1024.0);
    tableOut.addRow({std::to_string(batch), std::to_string(launches),
                     TableWriter::num(us, 2), TableWriter::num(kb, 1),
                     TableWriter::num(hostUs, 2),
                     TableWriter::num(perSystemUs.front() / us, 2) + "x"});
  }

  std::printf("Batched vacancy-system NNP pipeline — %d systems per "
              "measurement (nRegion = %d, %d states)\n",
              kTotalSystems, cet.nRegion(), 1 + kNumJumpDirections);
  tableOut.print();

  const double speedup64 = perSystemUs[0] / perSystemUs[2];
  const bool monotone =
      std::is_sorted(perSystemUs.rbegin(), perSystemUs.rend());
  std::printf("\nbatch-64 speedup over batch-1: %.2fx (target >= 2x)\n",
              speedup64);
  std::printf("per-system cost monotone decreasing 1 -> 512: %s\n",
              monotone ? "yes" : "NO");

  // Telemetry stays off while timing (the per-dispatch histogram lookups
  // would tax small batches); the snapshot records the results only.
  telemetry::ScopedEnable record;
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  for (std::size_t i = 0; i < std::size(kBatchSizes); ++i) {
    const std::string suffix = ".b" + std::to_string(kBatchSizes[i]);
    reg.gauge("bench.batch.per_system_us" + suffix).set(perSystemUs[i]);
    reg.gauge("bench.batch.per_system_main_bytes" + suffix)
        .set(perSystemBytes[i]);
  }
  reg.gauge("bench.batch.speedup_b64_vs_b1").set(speedup64);
  reg.gauge("bench.batch.monotone").set(monotone ? 1.0 : 0.0);
  reg.writeJson("BENCH_batch_pipeline.metrics.json");
  std::printf("\nwrote BENCH_batch_pipeline.metrics.json\n");
  return 0;
}
