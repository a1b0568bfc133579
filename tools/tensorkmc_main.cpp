// TensorKMC command-line driver.
//
// Mirrors the paper artifact's invocation (`tensorkmc -in input`): reads
// a key-value input deck, builds the simulation, runs to the configured
// horizon with periodic progress reports, and optionally dumps an
// extended-XYZ trajectory of solutes and vacancies.
//
// `mode parallel` decks run the Shim-Amar synchronous-sublattice engine
// instead of the serial one. With `--telemetry <dir>` the run records
// metrics and tracing spans and writes `<dir>/trace.json` (Chrome
// trace-event format, loadable in chrome://tracing or Perfetto) plus
// `<dir>/metrics.json` (flat snapshot) on exit.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <memory>

#include "analysis/xyz_writer.hpp"
#include "common/fault_injection.hpp"
#include "common/simd.hpp"
#include "common/stopwatch.hpp"
#include "common/telemetry/telemetry.hpp"
#include "core/input_deck.hpp"
#include "kmc/checkpoint.hpp"
#include "parallel/parallel_engine.hpp"
#include "sunway/sunway_energy_model.hpp"

using namespace tkmc;

namespace {

void printUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s -in <deck> [--telemetry <dir>] [--blackbox-dump]\n"
               "          [--inject <point>=<spec>]... [--inject-seed <n>]\n"
               "       %s --help\n\n"
               "Runs a TensorKMC AKMC simulation described by a key-value\n"
               "input deck (see tools/sample_input.tkmc for the format).\n"
               "--telemetry records metrics + tracing spans and writes\n"
               "<dir>/trace.json and <dir>/metrics.json on exit.\n"
               "The per-rank flight recorder is always on; it dumps\n"
               "<dir>/blackbox_rank<R>.bin on rank failures, invariant\n"
               "trips, and fatal signals (decode with tkmc_blackbox).\n"
               "--blackbox-dump also writes the dumps on normal exit.\n"
               "--inject arms a fault point for chaos drills; <spec> is\n"
               "p<prob> (per-hit probability), once, or a comma list of\n"
               "1-based hit ordinals, e.g. --inject comm.rank_kill=40 or\n"
               "--inject comm.drop=p0.01. `--inject list` prints every\n"
               "registered fault point and exits. --inject-seed picks\n"
               "the injector's RNG stream (default 0).\n",
               argv0, argv0);
}

// Fatal-signal path: flush the flight recorder, then let the default
// handler produce the usual core/termination. Only async-signal-unsafe
// in ways that no longer matter — the process is already dying.
void blackboxSignalHandler(int sig) {
  telemetry::flightRecorder().dumpIncident("fatal_signal");
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void installBlackboxSignalHandlers() {
  for (const int sig : {SIGSEGV, SIGABRT, SIGFPE, SIGBUS, SIGILL})
    std::signal(sig, blackboxSignalHandler);
}

/// Parses one --inject argument ("point=spec") into `injector`.
void armInjection(FaultInjector& injector, const std::string& arg) {
  const std::size_t eq = arg.find('=');
  require(eq != std::string::npos && eq > 0 && eq + 1 < arg.size(),
          "--inject needs <point>=<spec>, got '" + arg + "'");
  const std::string point = arg.substr(0, eq);
  const std::string spec = arg.substr(eq + 1);
  // An unknown point name must fail loudly: a typo that silently arms
  // nothing turns a chaos drill into a false green.
  bool known = false;
  for (const FaultPointInfo& info : faultPointCatalog())
    if (point == info.name) {
      known = true;
      break;
    }
  require(known, "--inject: unknown fault point '" + point +
                     "' (run --inject list for the catalog)");
  if (spec == "once") {
    injector.armOnce(point);
  } else if (spec.size() > 1 && spec[0] == 'p') {
    injector.armProbability(point, std::stod(spec.substr(1)));
  } else {
    std::vector<std::uint64_t> ordinals;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ','))
      ordinals.push_back(std::stoull(item));
    require(!ordinals.empty(), "--inject " + point + ": empty schedule");
    injector.armSchedule(point, ordinals);
  }
}

void report(const Simulation& sim, const Stopwatch& wall) {
  const ClusterStats stats = analyzeClusters(sim.state(), Species::kCu);
  const double rate = wall.seconds() > 0
                          ? static_cast<double>(sim.steps()) / wall.seconds()
                          : 0.0;
  std::printf("events %10llu | t = %.4e s | propensity %.3e 1/s | "
              "isolated Cu %lld | max cluster %lld | %.0f events/s\n",
              static_cast<unsigned long long>(sim.steps()), sim.time(),
              const_cast<Simulation&>(sim).engine().totalPropensity(),
              static_cast<long long>(stats.isolatedCount),
              static_cast<long long>(stats.maxSize), rate);
}

void reportParallel(const ParallelEngine& engine, const Stopwatch& wall) {
  const double rate =
      wall.seconds() > 0
          ? static_cast<double>(engine.totalEvents()) / wall.seconds()
          : 0.0;
  std::printf("cycle %8llu | t = %.4e s | events %10llu | discarded %llu | "
              "%.0f events/s\n",
              static_cast<unsigned long long>(engine.cycles()), engine.time(),
              static_cast<unsigned long long>(engine.totalEvents()),
              static_cast<unsigned long long>(engine.discardedEvents()), rate);
}

void printRecoverySummary(const RecoveryStats& rs, bool usedCheckpointBackup) {
  std::printf("fault tolerance: %llu rollbacks, %llu invariant trips, "
              "%llu comm errors, %llu ghost retries, %llu fold retries, "
              "%llu rank failures (%llu epochs rolled back)\n",
              static_cast<unsigned long long>(rs.rollbacks),
              static_cast<unsigned long long>(rs.invariantTrips),
              static_cast<unsigned long long>(rs.commErrors),
              static_cast<unsigned long long>(rs.ghostRetries),
              static_cast<unsigned long long>(rs.foldRetries),
              static_cast<unsigned long long>(rs.rankFailures),
              static_cast<unsigned long long>(rs.epochsRolledBack));
  if (usedCheckpointBackup)
    std::printf("fault tolerance: checkpoint primary was unreadable; the "
                ".bak replica served the resume\n");
}

int runSerial(const InputDeck& deck, Simulation& sim,
              bool usedCheckpointBackup) {
  std::ofstream dump;
  if (!deck.dumpPath().empty()) {
    dump.open(deck.dumpPath());
    if (!dump.good()) {
      std::fprintf(stderr, "error: cannot open dump file %s\n",
                   deck.dumpPath().c_str());
      return 1;
    }
    XyzWriter::writeFrame(dump, sim.state(), "time=0");
  }

  Stopwatch wall;
  std::uint64_t executed = 0;
  std::uint64_t sinceReport = 0;
  std::uint64_t sinceDump = 0;
  std::uint64_t sinceCheckpoint = 0;
  report(sim, wall);
  while (sim.time() < deck.tEnd() && executed < deck.maxSteps()) {
    if (sim.run(deck.tEnd(), 1) == 0) {
      std::printf("no executable events left; stopping\n");
      break;
    }
    ++executed;
    if (++sinceReport >= deck.reportInterval()) {
      report(sim, wall);
      sim.engine().publishTelemetry();
      sinceReport = 0;
    }
    if (dump.is_open() && ++sinceDump >= deck.dumpInterval()) {
      XyzWriter::writeFrame(dump, sim.state(),
                            "time=" + std::to_string(sim.time()));
      sinceDump = 0;
    }
    if (!deck.checkpointWritePath().empty() &&
        ++sinceCheckpoint >= deck.checkpointInterval()) {
      sim.writeCheckpoint(deck.checkpointWritePath());
      sinceCheckpoint = 0;
    }
  }
  if (!deck.checkpointWritePath().empty())
    sim.writeCheckpoint(deck.checkpointWritePath());
  report(sim, wall);
  if (dump.is_open())
    XyzWriter::writeFrame(dump, sim.state(),
                          "time=" + std::to_string(sim.time()) + " final");

  sim.engine().publishTelemetry();
  sim.publishMemoryTelemetry();
  // Serial runs have no rollback machinery; the recovery line still
  // appears so every summary names its fault-tolerance outcome.
  printRecoverySummary(RecoveryStats{}, usedCheckpointBackup);
  std::printf("done: %llu events, %.4e simulated seconds, %.2f s wall "
              "(%.0f events/s)\n",
              static_cast<unsigned long long>(executed), sim.time(),
              wall.seconds(),
              wall.seconds() > 0
                  ? static_cast<double>(executed) / wall.seconds()
                  : 0.0);
  return 0;
}

int runParallel(const InputDeck& deck, Simulation& sim) {
  ParallelConfig pc;
  pc.temperature = deck.simulationConfig().temperature;
  pc.tStop = deck.tStop();
  pc.seed = deck.simulationConfig().seed ^ 0x9a11e1ULL;
  pc.rankGrid = deck.rankGrid();
  pc.catalog = deck.simulationConfig().eventCatalog;
  pc.threaded = deck.threaded();
  pc.enableRecovery = deck.recovery();
  pc.checkpointDir = deck.checkpointDir();
  pc.checkpointCadence = deck.checkpointCadence();
  pc.checkpointMode = deck.deltaCheckpoints() ? CheckpointMode::kDelta
                                              : CheckpointMode::kFull;
  pc.maxDeltaChain = deck.maxDeltaChain();
  pc.spareRanks = deck.spareRanks();
  pc.heartbeatIntervalMs = deck.heartbeatIntervalMs();
  pc.heartbeatTimeoutMs = deck.heartbeatTimeoutMs();
  pc.remoteDir = deck.remoteDir();
  pc.remoteRateMbps = deck.remoteRateMbps();
  pc.remoteMaxLagEpochs = deck.remoteMaxLagEpochs();
  pc.remoteRetries = deck.remoteRetries();

  // The NNP backend runs through the simulated CPE grid here — the
  // paper's production pipeline — so operator traffic and LDM
  // high-water show up in the telemetry of a normal parallel run.
  std::unique_ptr<SunwayEnergyModel> sunwayModel;
  EnergyModel* model = &sim.model();
  if (deck.simulationConfig().potential == SimulationConfig::Potential::kNnp) {
    sunwayModel = std::make_unique<SunwayEnergyModel>(
        sim.cet(), sim.net(), *sim.featureTable(), *sim.network());
    model = sunwayModel.get();
    std::printf("parallel energies on the simulated CPE grid "
                "(big-fusion backend)\n");
  }

  // `resume on`: restart from the newest complete epoch in
  // checkpoint_dir. With a remote_dir configured the probe store heals
  // epochs whose local shards are missing or torn from the remote copy
  // (placement-map CRC-verified), so a run whose node died — local
  // shards and all — restarts from the streamed copy.
  std::unique_ptr<ParallelEngine> resumedEngine;
  if (deck.resume() && !pc.checkpointDir.empty()) {
    CheckpointStore probe(pc.checkpointDir);
    probe.setMaxDeltaChain(pc.maxDeltaChain);
    std::shared_ptr<RemoteShardStore> probeRemote;
    if (!pc.remoteDir.empty()) {
      probeRemote = std::make_shared<DirRemoteStore>(pc.remoteDir);
      probe.attachRemote(probeRemote);
    }
    const std::optional<std::uint64_t> epoch = probe.newestCompleteEpoch();
    if (epoch) {
      resumedEngine = std::make_unique<ParallelEngine>(*model, sim.cet(), pc,
                                                       probe, *epoch);
      if (probe.remoteHeals() > 0)
        std::printf("remote store: healed %llu epoch(s) from %s\n",
                    static_cast<unsigned long long>(probe.remoteHeals()),
                    pc.remoteDir.c_str());
      std::printf("resumed from checkpoint epoch %llu at t = %.4e s\n",
                  static_cast<unsigned long long>(*epoch),
                  resumedEngine->time());
    } else {
      std::printf("resume requested but %s has no complete epoch; "
                  "starting fresh\n",
                  pc.checkpointDir.c_str());
    }
  }
  std::unique_ptr<ParallelEngine> freshEngine;
  if (!resumedEngine)
    freshEngine =
        std::make_unique<ParallelEngine>(sim.state(), *model, sim.cet(), pc);
  ParallelEngine& engine = resumedEngine ? *resumedEngine : *freshEngine;
  std::printf("parallel mode: %d ranks (%d x %d x %d), t_stop %.2e s, "
              "recovery %s\n",
              engine.rankCount(), pc.rankGrid.x, pc.rankGrid.y, pc.rankGrid.z,
              pc.tStop, pc.enableRecovery ? "on" : "off");
  if (!pc.checkpointDir.empty())
    std::printf("coordinated checkpoints: %s, every %d cycle(s), %s mode%s\n",
                pc.checkpointDir.c_str(), pc.checkpointCadence,
                pc.checkpointMode == CheckpointMode::kDelta ? "delta" : "full",
                pc.checkpointMode == CheckpointMode::kDelta
                    ? (", chain <= " + std::to_string(pc.maxDeltaChain))
                          .c_str()
                    : "");
  if (pc.heartbeatTimeoutMs > 0)
    std::printf("fail-stop detector: %.1f ms lease, %.1f ms poll interval, "
                "%d spare rank(s)\n",
                pc.heartbeatTimeoutMs, pc.heartbeatIntervalMs, pc.spareRanks);
  if (!pc.checkpointDir.empty() && !pc.remoteDir.empty())
    std::printf("remote shard store: %s (rate %s MB/s, lag cap %d epoch(s), "
                "%d put attempt(s) per object)\n",
                pc.remoteDir.c_str(),
                pc.remoteRateMbps > 0
                    ? std::to_string(pc.remoteRateMbps).c_str()
                    : "unlimited",
                pc.remoteMaxLagEpochs, pc.remoteRetries);

  Stopwatch wall;
  std::uint64_t sinceReport = 0;
  reportParallel(engine, wall);
  while (engine.time() < deck.tEnd()) {
    engine.runCycle();
    if (++sinceReport >= deck.reportInterval()) {
      reportParallel(engine, wall);
      sinceReport = 0;
    }
  }
  reportParallel(engine, wall);
  if (engine.recoveryStats().rankFailures > 0)
    std::printf("survived %llu rank fail-stop(s): now %d ranks "
                "(%d x %d x %d), resumed from epoch %llu, %llu grow "
                "recover(ies), %d spare(s) left\n",
                static_cast<unsigned long long>(
                    engine.recoveryStats().rankFailures),
                engine.comm().aliveCount(), engine.rankGrid().x,
                engine.rankGrid().y, engine.rankGrid().z,
                static_cast<unsigned long long>(engine.lastRecoveryEpoch()),
                static_cast<unsigned long long>(
                    engine.recoveryStats().growRecoveries),
                engine.spareRanksRemaining());
  if (engine.shardStreamer() != nullptr) {
    // Flush before reporting so the numbers cover the whole run (the
    // destructor would drain anyway, but after the summary prints).
    engine.shardStreamer()->drain();
    std::printf("remote streaming: %llu epoch(s) streamed, %llu retr(ies), "
                "%llu given up\n",
                static_cast<unsigned long long>(
                    engine.shardStreamer()->epochsStreamed()),
                static_cast<unsigned long long>(
                    engine.shardStreamer()->retries()),
                static_cast<unsigned long long>(
                    engine.shardStreamer()->gaveUp()));
  }
  engine.publishTelemetry();
  // The facade's serial engine built the initial propensity state
  // through the vacancy cache; fold its stats (and the operator traffic
  // accumulated on the CPE grid) into the same snapshot.
  sim.engine().publishTelemetry();
  if (sunwayModel) sunwayModel->collectTraffic();
  sim.publishMemoryTelemetry();
  printRecoverySummary(engine.recoveryStats(), false);
  std::printf("done: %llu events over %llu cycles, %.4e simulated seconds, "
              "%.2f s wall\n",
              static_cast<unsigned long long>(engine.totalEvents()),
              static_cast<unsigned long long>(engine.cycles()), engine.time(),
              wall.seconds());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--help") == 0) {
    printUsage(argv[0]);
    return 0;
  }
  std::string deckPath;
  std::string telemetryDir;
  std::vector<std::string> injections;
  std::uint64_t injectSeed = 0;
  bool blackboxOnExit = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-in") == 0 && i + 1 < argc) {
      deckPath = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
      telemetryDir = argv[++i];
    } else if (std::strcmp(argv[i], "--blackbox-dump") == 0) {
      blackboxOnExit = true;
    } else if (std::strcmp(argv[i], "--inject") == 0 && i + 1 < argc) {
      if (std::strcmp(argv[i + 1], "list") == 0) {
        std::printf("registered fault-injection points:\n");
        for (const FaultPointInfo& point : faultPointCatalog())
          std::printf("  %-32s %s\n", point.name, point.where);
        return 0;
      }
      injections.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--inject-seed") == 0 && i + 1 < argc) {
      injectSeed = std::stoull(argv[++i]);
    } else {
      printUsage(argv[0]);
      return 2;
    }
  }
  if (deckPath.empty()) {
    printUsage(argv[0]);
    return 2;
  }

  try {
    const InputDeck deck = InputDeck::parseFile(deckPath);
    const SimulationConfig config = deck.simulationConfig();
    std::printf("TensorKMC/1.0 — input deck: %s\n", deckPath.c_str());
    std::printf("box %d^3 cells, r_cut %.2f A, %s potential, T = %.0f K\n",
                config.cells, config.cutoff,
                config.potential == SimulationConfig::Potential::kNnp ? "NNP"
                                                                      : "EAM",
                config.temperature);
    // Which dense-kernel clone the CPU check picked, so a run's speed
    // can be explained across hosts.
    std::printf("kernels: %s dense tiles\n",
                simd::hasAvx2() ? "avx2" : "sse2");
    if (config.eventCatalog.name != "vacancy_hop")
      std::printf("event catalog: %s (trap_fraction %.3g, trap_binding "
                  "%.3g eV, sink_planes %d)\n",
                  config.eventCatalog.name.c_str(),
                  config.eventCatalog.trapFraction,
                  config.eventCatalog.trapBinding,
                  config.eventCatalog.sinkPlanes);

    if (!telemetryDir.empty()) {
      telemetry::setEnabled(true);
      std::printf("telemetry: recording to %s\n", telemetryDir.c_str());
    }
    // Blackbox dumps land next to the telemetry output (or in a default
    // directory without --telemetry) when an incident fires mid-run.
    telemetry::flightRecorder().setDumpDir(
        telemetryDir.empty() ? "tkmc_blackbox" : telemetryDir);
    installBlackboxSignalHandlers();

    FaultInjector injector(injectSeed);
    std::unique_ptr<FaultScope> faultScope;
    if (!injections.empty()) {
      for (const std::string& arg : injections) armInjection(injector, arg);
      faultScope = std::make_unique<FaultScope>(injector);
      std::printf("fault injection: %zu point(s) armed, seed %llu\n",
                  injections.size(),
                  static_cast<unsigned long long>(injectSeed));
    }

    Stopwatch setup;
    Simulation sim(config);
    bool usedCheckpointBackup = false;
    if (!deck.checkpointReadPath().empty()) {
      usedCheckpointBackup =
          sim.restoreCheckpointFromFile(deck.checkpointReadPath());
      if (usedCheckpointBackup)
        std::fprintf(stderr,
                     "warning: %s was unreadable; resumed from the .bak "
                     "replica\n",
                     deck.checkpointReadPath().c_str());
      std::printf("resumed from %s at t = %.4e s (%llu events)\n",
                  deck.checkpointReadPath().c_str(), sim.time(),
                  static_cast<unsigned long long>(sim.steps()));
    }
    std::printf("setup: %lld sites, %lld Cu, %lld vacancies (%.2f s)\n",
                static_cast<long long>(sim.state().lattice().siteCount()),
                static_cast<long long>(sim.state().countSpecies(Species::kCu)),
                static_cast<long long>(
                    sim.state().countSpecies(Species::kVacancy)),
                setup.seconds());

    const int status = deck.parallelMode()
                           ? runParallel(deck, sim)
                           : runSerial(deck, sim, usedCheckpointBackup);
    if (faultScope) {
      for (const FaultInjector::PointReport& row : injector.report())
        std::printf("fault injection: %s fired %llu of %llu hit(s)\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.fires),
                    static_cast<unsigned long long>(row.hits));
    }
    if (!telemetryDir.empty()) {
      telemetry::metrics().gauge("kernels.avx2").set(simd::hasAvx2() ? 1 : 0);
      telemetry::writeAll(telemetryDir);
      std::printf("telemetry: wrote %s/trace.json (%zu events, %llu dropped) "
                  "and %s/metrics.json\n",
                  telemetryDir.c_str(), telemetry::tracer().eventCount(),
                  static_cast<unsigned long long>(
                      telemetry::tracer().dropped()),
                  telemetryDir.c_str());
    }
    if (blackboxOnExit) {
      const int dumped = telemetry::flightRecorder().dumpAll();
      std::printf("blackbox: wrote %d dump(s) to %s\n", dumped,
                  telemetry::flightRecorder().dumpDir().c_str());
    }
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
