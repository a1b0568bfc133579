// Incremental checkpoint size: delta epochs versus the full epochs they
// replace, at cadences 1 / 8 / 64.
//
// Full-epoch checkpoints make minute-scale cadences unaffordable at the
// paper's trillion-site extrapolation; the delta path stages only the
// occupation pages (SpeciesStore page geometry) dirtied since the last
// committed epoch. This bench runs the parallel engine in kDelta mode on
// a low-churn RPV-style box (few vacancies in mostly-Fe), records every
// epoch as it commits (consolidation GCs deltas later, so sizes are
// sampled live), and reports delta/full byte ratios plus dirty-page
// counts as gauges for `scripts/bench_gate.py`.
//
// Acceptance: at cadence 1 the mean delta epoch is <= 10% of a full
// epoch, with consolidation bounding the chain at max_delta_chain links.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "common/table_writer.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/parallel_engine.hpp"

using namespace tkmc;

namespace {

// 48^3 cells on 2x2x1: 55296 sites/rank = 14 occupation pages, enough
// page granularity for a handful of vacancies to leave most pages clean.
constexpr int kCells = 48;
constexpr double kCutoff = 4.0;
constexpr std::int64_t kVacancies = 2;

struct CadenceStats {
  std::uint64_t fullEpochs = 0;
  std::uint64_t deltaEpochs = 0;
  std::uint64_t fullBytes = 0;   // newest full epoch's shard bytes
  double deltaBytesMean = 0.0;
  double dirtyPagesMean = 0.0;
};

std::uint64_t shardBytes(const EpochManifest& manifest) {
  std::uint64_t total = 0;
  for (const EpochManifest::ShardEntry& s : manifest.shards) total += s.bytes;
  return total;
}

CadenceStats runCadence(int cadence, int cycles) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tkmc_bench_delta_c" + std::to_string(cadence));
  std::filesystem::remove_all(dir);

  Cet cet(2.87, kCutoff);
  Net net(cet);
  EamPotential eam(kCutoff);
  BccLattice lattice(kCells, kCells, kCells, 2.87);
  LatticeState state(lattice);
  Rng rng(4242);
  state.randomAlloy(0.03, kVacancies, rng);
  EamEnergyModel model(cet, net, eam);

  ParallelConfig cfg;
  cfg.seed = 7;
  cfg.tStop = 5e-8;
  cfg.rankGrid = {2, 2, 1};
  cfg.checkpointDir = dir.string();
  cfg.checkpointCadence = cadence;
  cfg.checkpointMode = CheckpointMode::kDelta;
  cfg.maxDeltaChain = 8;
  ParallelEngine engine(state, model, cet, cfg);

  // Sample each epoch the cycle it commits: consolidation GCs superseded
  // deltas from disk, but their staged sizes are what the cadence costs.
  CheckpointStore store(dir.string());
  CadenceStats stats;
  std::uint64_t deltaBytes = 0, dirtyPages = 0;
  std::set<std::uint64_t> seen;
  const auto sample = [&]() {
    for (const std::uint64_t epoch : store.epochs()) {
      if (!seen.insert(epoch).second) continue;
      const EpochManifest manifest = store.loadManifest(epoch);
      if (manifest.isDelta()) {
        ++stats.deltaEpochs;
        deltaBytes += shardBytes(manifest);
        for (const ShardRecord& shard : store.loadShards(manifest))
          dirtyPages += shard.dirtyPages.size();
      } else {
        ++stats.fullEpochs;
        stats.fullBytes = shardBytes(manifest);
      }
    }
  };
  sample();  // construction epoch
  for (int c = 0; c < cycles; ++c) {
    engine.runCycle();
    sample();
  }
  if (stats.deltaEpochs > 0) {
    stats.deltaBytesMean =
        static_cast<double>(deltaBytes) / static_cast<double>(stats.deltaEpochs);
    stats.dirtyPagesMean = static_cast<double>(dirtyPages) /
                           static_cast<double>(stats.deltaEpochs);
  }
  std::filesystem::remove_all(dir);
  return stats;
}

// Paired wall measurement for the remote ShardStreamer: the same
// cadence-1 delta run with and without a remote mirror attached. The
// streamer copies on its own thread, so the visible cost is only the
// enqueue + lag bookkeeping in afterCommit plus disk contention — the
// gate (bench/baselines/tolerances.json) holds the fraction near zero.
constexpr int kOverheadCycles = 48;

double timedDeltaRun(bool withRemote) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (withRemote ? "tkmc_bench_stream_l" : "tkmc_bench_plain_l");
  const auto remote =
      std::filesystem::temp_directory_path() / "tkmc_bench_stream_r";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(remote);

  Cet cet(2.87, kCutoff);
  Net net(cet);
  EamPotential eam(kCutoff);
  BccLattice lattice(kCells, kCells, kCells, 2.87);
  LatticeState state(lattice);
  Rng rng(4242);
  state.randomAlloy(0.03, kVacancies, rng);
  EamEnergyModel model(cet, net, eam);

  ParallelConfig cfg;
  cfg.seed = 7;
  cfg.tStop = 5e-8;
  cfg.rankGrid = {2, 2, 1};
  cfg.checkpointDir = dir.string();
  cfg.checkpointCadence = 1;
  cfg.checkpointMode = CheckpointMode::kDelta;
  cfg.maxDeltaChain = 8;
  if (withRemote) {
    cfg.remoteDir = remote.string();
    cfg.remoteMaxLagEpochs = 64;  // measure streaming, not throttling
  }

  const auto t0 = std::chrono::steady_clock::now();
  {
    ParallelEngine engine(state, model, cet, cfg);
    for (int c = 0; c < kOverheadCycles; ++c) engine.runCycle();
    if (withRemote) engine.shardStreamer()->drain();
  }
  const auto t1 = std::chrono::steady_clock::now();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(remote);
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  telemetry::ScopedEnable record;
  telemetry::MetricsRegistry& reg = telemetry::metrics();
  TableWriter out({"cadence", "cycles", "full/delta epochs", "full bytes",
                   "mean delta bytes", "delta/full", "mean dirty pages"});

  bool accepted = true;
  // Enough cycles per cadence for at least one delta link past the
  // construction full (and, at cadence 1, one consolidation at depth 8).
  const int kPlan[][2] = {{1, 12}, {8, 24}, {64, 65}};
  for (const auto& [cadence, cycles] : kPlan) {
    const CadenceStats s = runCadence(cadence, cycles);
    const double ratio = s.fullBytes == 0
                             ? 0.0
                             : s.deltaBytesMean /
                                   static_cast<double>(s.fullBytes);
    std::string tag("c");
    tag += std::to_string(cadence);
    reg.gauge("bench.delta_ckpt.full_bytes." + tag)
        .set(static_cast<double>(s.fullBytes));
    reg.gauge("bench.delta_ckpt.delta_bytes_mean." + tag).set(s.deltaBytesMean);
    reg.gauge("bench.delta_ckpt.ratio." + tag).set(ratio);
    reg.gauge("bench.delta_ckpt.dirty_pages_mean." + tag)
        .set(s.dirtyPagesMean);
    out.addRow({std::to_string(cadence), std::to_string(cycles),
                std::to_string(s.fullEpochs) + "/" +
                    std::to_string(s.deltaEpochs),
                std::to_string(s.fullBytes),
                TableWriter::num(s.deltaBytesMean, 0),
                TableWriter::num(ratio, 4),
                TableWriter::num(s.dirtyPagesMean, 1)});
    // The acceptance bar applies at cadence 1: per-cycle epochs are the
    // low-churn case delta checkpointing exists for. Longer cadences
    // accumulate churn and are reported for the cost curve.
    if (cadence == 1 && ratio > 0.10) accepted = false;
    if (s.deltaEpochs == 0) accepted = false;  // delta path never engaged
  }

  // Remote streamer overhead: min-of-3 paired runs so scheduler noise
  // in either arm does not manufacture (or mask) a regression. The
  // remote arm also populates the checkpoint.remote_lag histogram and
  // checkpoint.remote_lag_epochs gauge that the bench gate tracks.
  double tLocal = 1e300, tRemote = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    tLocal = std::min(tLocal, timedDeltaRun(/*withRemote=*/false));
    tRemote = std::min(tRemote, timedDeltaRun(/*withRemote=*/true));
  }
  const double overheadFrac =
      tLocal > 0.0 ? std::max(0.0, (tRemote - tLocal) / tLocal) : 0.0;
  reg.gauge("bench.delta_ckpt.streamer_overhead_frac").set(overheadFrac);
  reg.gauge("bench.delta_ckpt.wall_local_seconds").set(tLocal);
  reg.gauge("bench.delta_ckpt.wall_remote_seconds").set(tRemote);

  // With a second core the worker's copies overlap the engine and the
  // 5% bar is the real claim; on one core every copied byte serializes
  // with KMC compute, so only an order-of-magnitude bar (a wedged or
  // accidentally synchronous streamer) is measurable.
  const int hostCores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  reg.gauge("bench.delta_ckpt.streamer_host_cores")
      .set(static_cast<double>(hostCores));
  const double overheadBar = hostCores >= 2 ? 0.05 : 0.5;
  if (overheadFrac > overheadBar) accepted = false;

  std::printf("Delta checkpoint size — %d^3 cells (%d sites, 2x2x1 ranks), "
              "%lld vacancies, max_delta_chain 8\n",
              kCells, 2 * kCells * kCells * kCells,
              static_cast<long long>(kVacancies));
  out.print();
  std::printf("\nremote streamer overhead: %.2f%% of wall "
              "(%.3f s local, %.3f s streaming, %d cycles, min of 3; "
              "bar <= %.0f%% at %d host core(s))\n",
              overheadFrac * 100.0, tLocal, tRemote, kOverheadCycles,
              overheadBar * 100.0, hostCores);
  std::printf("acceptance (mean cadence-1 delta <= 10%% of full AND "
              "streamer overhead within bar): %s\n",
              accepted ? "PASS" : "FAIL");

  reg.gauge("bench.delta_ckpt.accept_ok").set(accepted ? 1.0 : 0.0);
  reg.writeJson("BENCH_delta_checkpoint.metrics.json");
  std::printf("wrote BENCH_delta_checkpoint.metrics.json\n");
  return accepted ? 0 : 1;
}
