#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/parallel_engine.hpp"
#include "parallel/rank_team.hpp"

namespace tkmc {
namespace {

namespace tm = telemetry;

constexpr double kCutoff = 4.0;

struct ParallelWorld {
  ParallelWorld(std::uint64_t seed, int cells = 16, int vacancies = 6)
      : cet(2.87, kCutoff), net(cet), eam(kCutoff),
        lattice(cells, cells, cells, 2.87), state(lattice) {
    Rng rng(seed);
    state.randomAlloy(0.12, vacancies, rng);
  }

  Cet cet;
  Net net;
  EamPotential eam;
  BccLattice lattice;
  LatticeState state;
};

std::string tempDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir.string();
}

ParallelConfig basicConfig(std::uint64_t seed, Vec3i grid, bool threaded) {
  ParallelConfig cfg;
  cfg.seed = seed;
  cfg.tStop = 5e-8;
  cfg.rankGrid = grid;
  cfg.threaded = threaded;
  return cfg;
}

struct RunResult {
  std::uint64_t events = 0;
  std::uint64_t discarded = 0;
  std::uint64_t cycles = 0;
  std::uint32_t hash = 0;

  bool operator==(const RunResult&) const = default;
};

RunResult runEngine(std::uint64_t worldSeed, const ParallelConfig& cfg,
                    int cycles) {
  ParallelWorld w(worldSeed);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, cfg);
  for (int c = 0; c < cycles; ++c) engine.runCycle();
  EXPECT_TRUE(engine.ghostsConsistent());
  return {engine.totalEvents(), engine.discardedEvents(), engine.cycles(),
          engine.assembleGlobalState().contentHash()};
}

// --- RankTeam ----------------------------------------------------------

TEST(RankTeam, RunsOneJobPerRankAndBarriers) {
  RankTeam team(8);
  EXPECT_TRUE(team.threaded());
  std::vector<int> hits(8, 0);
  for (int round = 0; round < 100; ++round)
    team.run([&](int r) { ++hits[static_cast<std::size_t>(r)]; });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(hits[static_cast<std::size_t>(r)], 100);
}

TEST(RankTeam, RethrowsTheLowestFailingRanksException) {
  RankTeam team(4);
  for (int round = 0; round < 5; ++round) {
    try {
      team.run([](int r) {
        if (r >= 1) throw CommError("rank " + std::to_string(r) + " failed");
      });
      FAIL() << "expected a CommError";
    } catch (const CommError& e) {
      // Ranks 1..3 all threw; the barrier must deterministically surface
      // rank 1's error regardless of which thread finished last.
      EXPECT_STREQ(e.what(), "rank 1 failed");
    }
  }
  // The team stays usable after a throwing phase.
  std::vector<int> hits(4, 0);
  team.run([&](int r) { ++hits[static_cast<std::size_t>(r)]; });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(hits[static_cast<std::size_t>(r)], 1);
}

TEST(RankTeam, InlineTeamRunsOnTheCallersThreadInRankOrder) {
  RankTeam team(4, /*threaded=*/false);
  EXPECT_FALSE(team.threaded());
  EXPECT_EQ(team.size(), 4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  team.run([&](int r) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(r);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // The first throw stops the phase: ranks after it never run.
  order.clear();
  try {
    team.run([&](int r) {
      order.push_back(r);
      if (r >= 1) throw CommError("rank " + std::to_string(r) + " failed");
    });
    FAIL() << "expected a CommError";
  } catch (const CommError& e) {
    EXPECT_STREQ(e.what(), "rank 1 failed");
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

// --- Threaded backend determinism --------------------------------------

TEST(ThreadedEngine, MatchesInProcessBackendBitExactly) {
  // The paper-level acceptance for the backend swap: same deck, same
  // seed, same trajectory — bit-for-bit — whether the ranks run on one
  // thread or on a thread each. A full sector rotation (8 cycles) on a
  // flat and a full 3-D grid.
  for (const Vec3i grid : {Vec3i{2, 2, 1}, Vec3i{2, 2, 2}}) {
    SCOPED_TRACE("grid " + std::to_string(grid.x) + "x" +
                 std::to_string(grid.y) + "x" + std::to_string(grid.z));
    const RunResult sequential =
        runEngine(51, basicConfig(61, grid, /*threaded=*/false), 8);
    const RunResult threaded =
        runEngine(51, basicConfig(61, grid, /*threaded=*/true), 8);
    EXPECT_GT(sequential.events, 0u);
    EXPECT_TRUE(sequential == threaded);
  }
}

TEST(ThreadedEngine, IncrementalGhostExchangeDoesNotDriftUnderRankThreads) {
  // Change lists are written from the rank threads (sector hops, fold
  // apply, ghost receives); 40 cycles with the full ghost sweep every
  // cycle must trip nothing, and after the first cycle's full resync
  // the traffic stays a small fraction of it.
  ParallelWorld w(53);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = basicConfig(63, {2, 2, 1}, /*threaded=*/true);
  cfg.invariantCadence = 1;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  std::uint64_t firstBytes = 0;
  for (int c = 0; c < 40; ++c) {
    const std::uint64_t before = engine.comm().totalBytesSent();
    engine.runCycle();
    ASSERT_TRUE(engine.ghostsConsistent()) << "cycle " << c;
    const std::uint64_t bytes = engine.comm().totalBytesSent() - before;
    if (c == 0)
      firstBytes = bytes;
    else
      EXPECT_LT(bytes * 10, firstBytes)
          << "cycle " << c << ": " << bytes << " of " << firstBytes;
  }
  EXPECT_GT(engine.totalEvents(), 0u);
  EXPECT_EQ(engine.recoveryStats().invariantTrips, 0u);
  EXPECT_EQ(engine.recoveryStats().rollbacks, 0u);
}

TEST(ThreadedEngine, ThreadedRunsAreReproducible) {
  const ParallelConfig cfg = basicConfig(62, {2, 2, 2}, /*threaded=*/true);
  const RunResult first = runEngine(52, cfg, 8);
  const RunResult second = runEngine(52, cfg, 8);
  EXPECT_TRUE(first == second);
}

TEST(ThreadedEngine, KeyedDropFaultsReproduceAcrossRuns) {
  // Channel-stream mode: which (channel, per-channel ordinal) frames get
  // dropped is a pure function of (seed, point, key), so two threaded
  // runs absorb exactly the same drops via ARQ and agree bit-for-bit —
  // trajectory AND injector report — despite arbitrary interleaving.
  const auto run = [](RunResult& result, std::uint64_t& drops,
                      std::uint64_t& retries) {
    ParallelWorld w(53);
    EamEnergyModel model(w.cet, w.net, w.eam);
    FaultInjector inj(17);
    inj.setChannelStreams(true);
    inj.armProbability("comm.drop", 0.02);
    FaultScope scope(inj);
    ParallelEngine engine(w.state, model, w.cet,
                          basicConfig(63, {2, 2, 1}, /*threaded=*/true));
    for (int c = 0; c < 8; ++c) engine.runCycle();
    EXPECT_TRUE(engine.ghostsConsistent());
    result = {engine.totalEvents(), engine.discardedEvents(), engine.cycles(),
              engine.assembleGlobalState().contentHash()};
    drops = inj.fireCount("comm.drop");
    const RecoveryStats stats = engine.recoveryStats();
    retries = stats.ghostRetries + stats.foldRetries;
  };
  RunResult firstResult, secondResult;
  std::uint64_t firstDrops = 0, secondDrops = 0;
  std::uint64_t firstRetries = 0, secondRetries = 0;
  run(firstResult, firstDrops, firstRetries);
  run(secondResult, secondDrops, secondRetries);
  EXPECT_TRUE(firstResult == secondResult);
  EXPECT_EQ(firstDrops, secondDrops);
  EXPECT_EQ(firstRetries, secondRetries);
  EXPECT_GT(firstDrops, 0u) << "deck too small to exercise the drop point";
  EXPECT_EQ(firstRetries, firstDrops) << "every drop should be absorbed by ARQ";
}

// --- Fold and commit-vote ARQ ------------------------------------------

TEST(EngineArq, FoldAndVoteDropsAreAbsorbedWithoutRollback) {
  // Fold (tag 50) and commit-vote (tag 60) receives resend a lost frame
  // from the sender's buffered copy. Dropping frames on one fold and one
  // vote channel only must cost exactly one counted retry per drop, no
  // rollback, and leave the trajectory of the fault-free run.
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded" : "in-process");
    const auto run = [&](bool faulted, RecoveryStats& stats,
                         std::uint64_t& drops) {
      ParallelWorld w(53);
      EamEnergyModel model(w.cet, w.net, w.eam);
      ParallelConfig cfg = basicConfig(63, {2, 2, 1}, threaded);
      cfg.checkpointDir = tempDir("tkmc_engine_arq");
      FaultInjector inj(5);
      inj.setChannelStreams(true);
      if (faulted) {
        inj.armChannelSchedule("comm.drop", SimComm::channelKey(1, 0, 50),
                               {2, 4});
        inj.armChannelSchedule("comm.drop", SimComm::channelKey(3, 0, 60),
                               {3});
      }
      FaultScope scope(inj);
      ParallelEngine engine(w.state, model, w.cet, cfg);
      for (int c = 0; c < 6; ++c) engine.runCycle();
      EXPECT_TRUE(engine.ghostsConsistent());
      stats = engine.recoveryStats();
      drops = inj.fireCount("comm.drop");
      return engine.assembleGlobalState().contentHash();
    };
    RecoveryStats clean, faulted;
    std::uint64_t cleanDrops = 0, drops = 0;
    const std::uint32_t cleanHash = run(false, clean, cleanDrops);
    const std::uint32_t hash = run(true, faulted, drops);
    EXPECT_EQ(cleanDrops, 0u);
    EXPECT_EQ(clean.foldRetries, 0u);
    EXPECT_EQ(drops, 3u);
    EXPECT_EQ(faulted.foldRetries, drops);
    EXPECT_EQ(faulted.ghostRetries, 0u);
    EXPECT_EQ(faulted.rollbacks, 0u);
    EXPECT_EQ(faulted.commErrors, 0u);
    EXPECT_EQ(hash, cleanHash);
  }
}

TEST(EngineArq, SilentFoldPeerFailsStopWithTheFoldLeaseText) {
  // A rank that dies between cycles leaves its fold channels silent. With
  // the lease armed and no checkpoint to recover from, the fold receive
  // names the dead rank and the fold channel.
  for (const bool threaded : {false, true}) {
    SCOPED_TRACE(threaded ? "threaded" : "in-process");
    ParallelWorld w(53);
    EamEnergyModel model(w.cet, w.net, w.eam);
    ParallelConfig cfg = basicConfig(63, {2, 2, 1}, threaded);
    cfg.heartbeatIntervalMs = 5.0;
    cfg.heartbeatTimeoutMs = 20.0;
    ParallelEngine engine(w.state, model, w.cet, cfg);
    engine.runCycle();
    engine.mutableComm().killRank(2);
    try {
      engine.runCycle();
      FAIL() << "expected a RankFailure";
    } catch (const RankFailure& failure) {
      EXPECT_EQ(failure.rank(), 2);
      EXPECT_STREQ(failure.what(),
                   "rank 2 fail-stop: fold lease expired on tag 50");
    }
  }
}

// --- Threaded fail-stop chaos soak -------------------------------------

ParallelConfig failstopConfig(std::uint64_t seed, const std::string& dir,
                              bool threaded) {
  ParallelConfig cfg = basicConfig(seed, {2, 2, 1}, threaded);
  cfg.checkpointDir = dir;
  cfg.checkpointCadence = 1;
  cfg.heartbeatIntervalMs = 5.0;
  cfg.heartbeatTimeoutMs = 20.0;
  return cfg;
}

void expectEveryCommittedEpochComplete(const std::string& dir) {
  CheckpointStore store(dir);
  for (const std::uint64_t epoch : store.epochs()) {
    EXPECT_NO_THROW({
      const EpochManifest manifest = store.loadManifest(epoch);
      const auto shards = store.loadShards(manifest);
      EXPECT_EQ(shards.size(), manifest.shards.size());
    }) << "committed epoch " << epoch
       << " references a missing or torn shard";
  }
}

/// Cross-backend recovery check: the threaded engine's post-recovery
/// trajectory must match a fresh *sequential* engine resumed from the
/// recovery epoch on the same shrunken grid, bit-exactly.
void expectMatchesFreshSequentialResume(ParallelEngine& engine,
                                        const std::string& dir) {
  ParallelWorld fresh(99);  // provides cet/model only; state comes from disk
  EamEnergyModel model(fresh.cet, fresh.net, fresh.eam);
  ParallelConfig cfg;
  cfg.tStop = 5e-8;
  cfg.rankGrid = engine.rankGrid();
  cfg.threaded = false;
  CheckpointStore store(dir);
  ParallelEngine resumed(model, fresh.cet, cfg, store,
                         engine.lastRecoveryEpoch());
  while (resumed.cycles() < engine.cycles()) resumed.runCycle();
  EXPECT_EQ(resumed.totalEvents(), engine.totalEvents());
  EXPECT_EQ(resumed.discardedEvents(), engine.discardedEvents());
  EXPECT_DOUBLE_EQ(resumed.time(), engine.time());
  EXPECT_EQ(resumed.assembleGlobalState().contentHash(),
            engine.assembleGlobalState().contentHash());
}

TEST(ThreadedEngineChaos, TwentySeededKillSchedulesAllRecoverBitExactly) {
  // The sequential soak from test_rank_failure, run on the threaded
  // backend: twenty seeded schedules each kill one rank at a random
  // point of the synchronization protocol. The RankFailure now surfaces
  // from a rank thread, crosses the team barrier, and drives the same
  // stop-the-world recovery; every run must conserve the physics, keep
  // every committed epoch loadable, and match a fresh sequential resume
  // from the recovery epoch bit-exactly.
  for (std::uint64_t s = 0; s < 20; ++s) {
    SCOPED_TRACE("schedule " + std::to_string(s));
    const std::string dir = tempDir("tkmc_threaded_chaos_" + std::to_string(s));
    ParallelWorld w(37);
    EamEnergyModel model(w.cet, w.net, w.eam);
    ParallelEngine engine(w.state, model, w.cet,
                          failstopConfig(47, dir, /*threaded=*/true));
    Rng pick(1000 + s);
    const std::uint64_t ordinal = 1 + pick.uniformBelow(100);
    FaultInjector inj(s);
    inj.armSchedule("comm.rank_kill", {ordinal});
    FaultScope scope(inj);
    for (int c = 0; c < 5; ++c) engine.runCycle();
    ASSERT_EQ(inj.triggerCount("comm.rank_kill"), 1u);
    ASSERT_EQ(engine.recoveryStats().rankFailures, 1u);
    ASSERT_EQ(engine.vacancyCount(), 6);
    ASSERT_TRUE(engine.ghostsConsistent());
    ASSERT_LT(engine.rankGrid().x * engine.rankGrid().y * engine.rankGrid().z,
              4);
    expectEveryCommittedEpochComplete(dir);
    expectMatchesFreshSequentialResume(engine, dir);
  }
}

// --- Keyed fault streams under interleaving -----------------------------

std::vector<std::vector<std::uint8_t>> keyedFirePattern(std::uint64_t seed,
                                                        bool concurrent) {
  constexpr int kKeys = 8;
  constexpr int kProbes = 200;
  FaultInjector inj(seed);
  inj.setChannelStreams(true);
  inj.armProbability("comm.drop", 0.5);
  std::vector<std::vector<std::uint8_t>> fired(
      kKeys, std::vector<std::uint8_t>(kProbes, 0));
  if (concurrent) {
    std::vector<std::thread> threads;
    threads.reserve(kKeys);
    for (int k = 0; k < kKeys; ++k)
      threads.emplace_back([&inj, &fired, k] {
        for (int p = 0; p < kProbes; ++p)
          fired[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] =
              inj.shouldFire("comm.drop", 1000 + static_cast<std::uint64_t>(k))
                  ? 1
                  : 0;
      });
    for (std::thread& t : threads) t.join();
  } else {
    // Round-robin across keys: a global probe order no thread schedule
    // would reproduce, which is exactly the point — per-key streams make
    // the global order irrelevant.
    for (int p = 0; p < kProbes; ++p)
      for (int k = 0; k < kKeys; ++k)
        fired[static_cast<std::size_t>(k)][static_cast<std::size_t>(p)] =
            inj.shouldFire("comm.drop", 1000 + static_cast<std::uint64_t>(k))
                ? 1
                : 0;
  }
  return fired;
}

TEST(FaultInjectorChannelStreams, KeyedFiringIsInterleavingIndependent) {
  const auto sequential = keyedFirePattern(7, /*concurrent=*/false);
  const auto threaded = keyedFirePattern(7, /*concurrent=*/true);
  EXPECT_EQ(sequential, threaded);
  // Sanity: the pattern is non-trivial and differs across keys.
  EXPECT_NE(sequential[0], sequential[1]);
  // And a different seed derives different per-key streams.
  EXPECT_NE(keyedFirePattern(8, false), sequential);
}

TEST(FaultInjectorChannelStreams, ScheduleOrdinalsCountPerKey) {
  FaultInjector inj(3);
  inj.setChannelStreams(true);
  inj.armSchedule("comm.corrupt", {2});
  // Ordinal 2 fires once per key, not once globally: each channel owns
  // its hit counter.
  for (const std::uint64_t key : {11ull, 22ull}) {
    EXPECT_FALSE(inj.shouldFire("comm.corrupt", key));
    EXPECT_TRUE(inj.shouldFire("comm.corrupt", key));
    EXPECT_FALSE(inj.shouldFire("comm.corrupt", key));
  }
  EXPECT_EQ(inj.fireCount("comm.corrupt"), 2u);
}

TEST(FaultInjectorChannelStreams, ChannelScheduleFiresOnOneKeyOnly) {
  FaultInjector inj(3);
  inj.setChannelStreams(true);
  inj.armChannelSchedule("comm.drop", 11, {2, 3});
  std::vector<int> fired11, fired22;
  for (int i = 1; i <= 4; ++i) {
    if (inj.shouldFire("comm.drop", 11)) fired11.push_back(i);
    if (inj.shouldFire("comm.drop", 22)) fired22.push_back(i);
  }
  EXPECT_EQ(fired11, (std::vector<int>{2, 3}));
  EXPECT_TRUE(fired22.empty());
  EXPECT_EQ(inj.fireCount("comm.drop"), 2u);
}

// --- Singleton hammers (TSan targets) -----------------------------------

TEST(ConcurrentTelemetry, MetricsAndTracerSurviveConcurrentWrites) {
  tm::resetAll();
  tm::ScopedEnable enable;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      for (int i = 0; i < kOps; ++i) {
        tm::metrics().counter("hammer.count").inc();
        tm::metrics().gauge("hammer.gauge").set(static_cast<double>(i));
        tm::metrics().histogram("hammer.hist").observe(static_cast<double>(i));
        tm::tracer().instant("hammer.instant", t);
        tm::flightRecorder().lamportTick();
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tm::metrics().counter("hammer.count").value(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(tm::metrics().histogram("hammer.hist").count(),
            static_cast<std::uint64_t>(kThreads) * kOps);
  const std::string json = tm::metrics().toJson();
  EXPECT_NE(json.find("hammer.count"), std::string::npos);
  tm::resetAll();
}

TEST(ConcurrentFlightRecorder, IncidentDumpDuringAppendsStaysDecodable) {
  // The seqlock acceptance: dumpIncident() racing a storm of concurrent
  // ring appends must still publish CRC-sealed TKBB files that decode —
  // a torn slot may be skipped, never emitted.
  const std::string dir = tempDir("tkmc_threaded_blackbox");
  tm::FlightRecorder rec;
  rec.setCapacity(256);
  rec.configureRanks(2);
  rec.setDumpDir(dir);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int rank = 0; rank < 2; ++rank)
    writers.emplace_back([&rec, &stop, rank] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed))
        rec.record(rank, tm::BlackboxEventType::kMarker, 0, ++i);
    });
  int written = 0;
  for (int burst = 0; burst < 20; ++burst) written += rec.dumpIncident("soak");
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(written, 40);
  for (int rank = 0; rank < 2; ++rank) {
    const std::string path =
        (std::filesystem::path(dir) /
         ("blackbox_rank" + std::to_string(rank) + ".bin"))
            .string();
    const tm::FlightRecorder::Dump dump = tm::FlightRecorder::readDump(path);
    EXPECT_EQ(dump.rank, rank);
    EXPECT_LE(dump.events.size(), 256u);
    EXPECT_GE(dump.totalRecorded, dump.events.size());
    for (const tm::BlackboxEvent& ev : dump.events) EXPECT_EQ(ev.rank, rank);
  }
}

}  // namespace
}  // namespace tkmc
