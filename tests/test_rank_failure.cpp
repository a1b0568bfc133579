#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/parallel_engine.hpp"

namespace tkmc {
namespace {

constexpr double kCutoff = 4.0;

struct ParallelWorld {
  // 16 cells is the smallest even extent that satisfies the sector
  // minimum on a 2x2x1 grid at this cutoff (subdomain extent 8 >= 7).
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

/// 2x2x1 flat grid with the whole fail-stop stack armed: coordinated
/// checkpoints every cycle and the lease-based failure detector.
ParallelConfig failstopConfig(std::uint64_t seed, const std::string& dir) {
  ParallelConfig cfg;
  cfg.seed = seed;
  cfg.tStop = 5e-8;
  cfg.rankGrid = {2, 2, 1};
  cfg.checkpointDir = dir;
  cfg.checkpointCadence = 1;
  cfg.heartbeatIntervalMs = 5.0;
  cfg.heartbeatTimeoutMs = 20.0;
  return cfg;
}

// --- Failure detector -------------------------------------------------

TEST(HeartbeatDetector, KilledRankIsDetectedInBoundedPolls) {
  SimComm comm(2);
  comm.setLease(5.0, 20.0);
  comm.send(1, 0, 7, {1, 2, 3});  // rank 1 beats once, then dies
  comm.killRank(1);
  const double waitStart = comm.nowMs();
  int polls = 0;
  SimComm::PeerVerdict verdict = SimComm::PeerVerdict::kSilent;
  while (verdict != SimComm::PeerVerdict::kFailed) {
    verdict = comm.pollPeer(1, waitStart);
    ASSERT_LE(++polls, 8) << "detector is not bounded";
  }
  // ceil(timeout / interval) + 1 = 5 polls at the most.
  EXPECT_LE(polls, 5);
  EXPECT_FALSE(comm.rankAlive(1));
  EXPECT_EQ(comm.aliveCount(), 1);
  // Detection latency is the silence the receiver actually sat through.
  EXPECT_GT(comm.nowMs() - comm.lastBeatMs(1), comm.leaseTimeoutMs());
}

TEST(HeartbeatDetector, LiveSenderPollsAlive) {
  SimComm comm(2);
  comm.setLease(5.0, 20.0);
  const double waitStart = comm.nowMs();
  comm.send(1, 0, 7, {9});  // beat lands at/after waitStart
  EXPECT_EQ(comm.pollPeer(1, waitStart), SimComm::PeerVerdict::kAlive);
  EXPECT_TRUE(comm.rankAlive(1));
}

TEST(HeartbeatDetector, SilentButLeasedPeerStaysUndecided) {
  SimComm comm(2);
  comm.setLease(5.0, 20.0);
  comm.tick(1.0);  // move past the construction-time lease grant
  // Fresh lease, no beat since waitStart: the verdict must be "silent"
  // (keep waiting), not a false positive.
  EXPECT_EQ(comm.pollPeer(1, comm.nowMs()), SimComm::PeerVerdict::kSilent);
  EXPECT_TRUE(comm.rankAlive(1));
}

// --- Deterministic shrink policy --------------------------------------

TEST(ShrinkRankGrid, ReducesWidestAxisToFitSurvivors) {
  EXPECT_EQ(shrinkRankGrid({2, 2, 1}, 3), (Vec3i{1, 2, 1}));
  EXPECT_EQ(shrinkRankGrid({2, 2, 2}, 7), (Vec3i{1, 2, 2}));
  EXPECT_EQ(shrinkRankGrid({4, 2, 1}, 3), (Vec3i{1, 2, 1}));
  EXPECT_EQ(shrinkRankGrid({2, 2, 2}, 8), (Vec3i{2, 2, 2}));  // already fits
  EXPECT_EQ(shrinkRankGrid({1, 1, 1}, 1), (Vec3i{1, 1, 1}));
  EXPECT_EQ(shrinkRankGrid({3, 1, 1}, 2), (Vec3i{1, 1, 1}));
}

// --- Coordinated checkpoint store -------------------------------------

TEST(CheckpointStore, ConstructionEpochRoundTripsTheInitialState) {
  const std::string dir = tempDir("tkmc_store_roundtrip");
  ParallelWorld w(31);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, failstopConfig(41, dir));

  CheckpointStore store(dir);
  ASSERT_EQ(store.epochs(), (std::vector<std::uint64_t>{0}));
  ASSERT_TRUE(store.newestCompleteEpoch().has_value());
  const EpochManifest manifest = store.loadManifest(0);
  EXPECT_EQ(manifest.rankGrid, (Vec3i{2, 2, 1}));
  EXPECT_EQ(manifest.shards.size(), 4u);
  EXPECT_DOUBLE_EQ(manifest.tStop, 5e-8);
  const LatticeState rebuilt =
      CheckpointStore::reassemble(manifest, store.loadShards(manifest));
  EXPECT_TRUE(rebuilt == w.state);
  EXPECT_EQ(rebuilt.contentHash(), w.state.contentHash());
}

TEST(CheckpointStore, StagedEpochsAreInvisibleUntilCommitted) {
  const std::string dir = tempDir("tkmc_store_staging");
  CheckpointStore store(dir);
  store.beginEpoch(3);
  ShardRecord shard;
  shard.rank = 0;
  shard.extentCells = {1, 1, 1};
  shard.species = {0, 1};
  store.stageShard(3, shard);
  EXPECT_TRUE(store.epochs().empty());
  EXPECT_FALSE(store.newestCompleteEpoch().has_value());
  store.abortEpoch(3);
  EXPECT_FALSE(std::filesystem::exists(store.stagePath(3)));
}

TEST(CheckpointStore, TornShardOrManifestDisqualifiesTheEpoch) {
  const std::string dir = tempDir("tkmc_store_torn");
  ParallelWorld w(32);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, failstopConfig(42, dir));
  engine.runCycle();
  engine.runCycle();

  CheckpointStore store(dir);
  ASSERT_EQ(store.epochs(), (std::vector<std::uint64_t>{0, 1, 2}));
  ASSERT_EQ(store.newestCompleteEpoch(), std::uint64_t{2});

  // Truncate one shard of epoch 2: the whole epoch is disqualified.
  const std::string shardPath = store.epochPath(2) + "/rank_1.tkc";
  {
    std::ifstream in(shardPath, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(shardPath, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{1});
  EXPECT_THROW((void)store.loadShards(store.loadManifest(2)), IoError);

  // Tear epoch 1's manifest itself: fall further back to epoch 0.
  std::filesystem::resize_file(store.epochPath(1) + "/manifest.tkm", 40);
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});
}

// --- Same-grid resume --------------------------------------------------

TEST(CoordinatedResume, SameGridContinuationIsBitExact) {
  const std::string dir = tempDir("tkmc_resume_samegrid");
  ParallelWorld a(33), b(33);
  EamEnergyModel ma(a.cet, a.net, a.eam), mb(b.cet, b.net, b.eam);
  ParallelConfig cfg = failstopConfig(43, dir);
  cfg.checkpointCadence = 2;
  ParallelEngine original(a.state, ma, a.cet, cfg);
  for (int c = 0; c < 6; ++c) original.runCycle();

  // Checkpointing must be side-effect-free on the physics: compare with
  // an engine that never checkpoints.
  ParallelConfig plain = failstopConfig(43, "");
  plain.checkpointDir.clear();
  plain.heartbeatTimeoutMs = 0.0;
  ParallelEngine witness(b.state, mb, b.cet, plain);
  for (int c = 0; c < 6; ++c) witness.runCycle();
  ASSERT_TRUE(original.assembleGlobalState() == witness.assembleGlobalState());

  // Resume a third engine from epoch 4 on the same grid: shards carry
  // the exact RNG stream states and vacancy orders, so cycles 5 and 6
  // replay bit-identically.
  ParallelWorld c(33);
  EamEnergyModel mc(c.cet, c.net, c.eam);
  ParallelConfig resumeCfg = failstopConfig(43, "");
  resumeCfg.checkpointDir.clear();
  resumeCfg.heartbeatTimeoutMs = 0.0;
  CheckpointStore store(dir);
  ParallelEngine resumed(mc, c.cet, resumeCfg, store, 4);
  EXPECT_EQ(resumed.cycles(), 4u);
  while (resumed.cycles() < original.cycles()) resumed.runCycle();
  EXPECT_EQ(resumed.totalEvents(), original.totalEvents());
  EXPECT_EQ(resumed.discardedEvents(), original.discardedEvents());
  EXPECT_TRUE(resumed.assembleGlobalState() == original.assembleGlobalState());
  EXPECT_EQ(resumed.assembleGlobalState().contentHash(),
            original.assembleGlobalState().contentHash());
}

// --- Rank fail-stop ----------------------------------------------------

TEST(RankFailStop, SurfacesTypedRankFailureWithoutACheckpointStore) {
  ParallelWorld w(34);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = failstopConfig(44, "");
  cfg.checkpointDir.clear();  // detector on, recovery impossible
  ParallelEngine engine(w.state, model, w.cet, cfg);
  FaultInjector inj(13);
  inj.armSchedule("comm.rank_kill", {5});
  FaultScope scope(inj);
  try {
    for (int c = 0; c < 3; ++c) engine.runCycle();
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& failure) {
    EXPECT_GE(failure.rank(), 0);
    EXPECT_LT(failure.rank(), 4);
    EXPECT_GT(failure.detectMs(), engine.comm().leaseTimeoutMs());
  }
  EXPECT_EQ(inj.triggerCount("comm.rank_kill"), 1u);
}

TEST(RankFailStop, KilledSenderCountsNoRetries) {
  // Nothing is dropped, so nothing is retransmitted: polling a killed
  // sender's lease until it expires is waiting, not retrying, and its
  // "resend" would do nothing.
  ParallelWorld w(34);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = failstopConfig(44, "");
  cfg.checkpointDir.clear();
  ParallelEngine engine(w.state, model, w.cet, cfg);
  FaultInjector inj(13);
  inj.armSchedule("comm.rank_kill", {5});  // rank 1's first fold send
  FaultScope scope(inj);
  try {
    for (int c = 0; c < 3; ++c) engine.runCycle();
    FAIL() << "expected RankFailure";
  } catch (const RankFailure& failure) {
    EXPECT_EQ(std::string(failure.what()),
              "rank 1 fail-stop: fold lease expired on tag 50");
  }
  EXPECT_EQ(engine.recoveryStats().foldRetries, 0u);
  EXPECT_EQ(engine.recoveryStats().ghostRetries, 0u);
}

/// Runs `engine` to `cycles` total cycles, then checks the surviving
/// trajectory against a FRESH engine resumed from the recovery epoch on
/// the same shrunken grid — the paper-level acceptance: recovery is
/// bit-reproducible, not merely plausible.
void expectMatchesFreshShrunkResume(ParallelEngine& engine,
                                    const std::string& dir) {
  ParallelWorld fresh(99);  // provides cet/model only; state comes from disk
  EamEnergyModel model(fresh.cet, fresh.net, fresh.eam);
  ParallelConfig cfg;
  cfg.tStop = 5e-8;
  cfg.rankGrid = engine.rankGrid();
  cfg.heartbeatTimeoutMs = 0.0;
  CheckpointStore store(dir);
  ParallelEngine resumed(model, fresh.cet, cfg, store,
                         engine.lastRecoveryEpoch());
  while (resumed.cycles() < engine.cycles()) resumed.runCycle();
  EXPECT_EQ(resumed.totalEvents(), engine.totalEvents());
  EXPECT_EQ(resumed.discardedEvents(), engine.discardedEvents());
  EXPECT_DOUBLE_EQ(resumed.time(), engine.time());
  EXPECT_TRUE(resumed.assembleGlobalState() == engine.assembleGlobalState());
  EXPECT_EQ(resumed.assembleGlobalState().contentHash(),
            engine.assembleGlobalState().contentHash());
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

TEST(RankFailStop, ShrinkRecoveryMatchesAFreshShrunkGridResume) {
  const std::string dir = tempDir("tkmc_failstop_shrink");
  ParallelWorld w(35);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, failstopConfig(45, dir));
  {
    FaultInjector inj(14);
    inj.armSchedule("comm.rank_kill", {10});  // mid-fold, cycle 1
    FaultScope scope(inj);
    for (int c = 0; c < 5; ++c) engine.runCycle();
    EXPECT_EQ(inj.triggerCount("comm.rank_kill"), 1u);
  }
  EXPECT_EQ(engine.cycles(), 5u);
  const RecoveryStats stats = engine.recoveryStats();
  EXPECT_EQ(stats.rankFailures, 1u);
  EXPECT_EQ(engine.rankGrid(), (Vec3i{1, 2, 1}));  // 4 ranks -> 3 survivors
  EXPECT_EQ(engine.vacancyCount(), 6);
  EXPECT_TRUE(engine.ghostsConsistent());
  expectEveryCommittedEpochComplete(dir);
  expectMatchesFreshShrunkResume(engine, dir);
}

TEST(RankFailStop, MidCommitKillNeverPublishesATornEpoch) {
  // On the 2x2x1 grid a cycle's sends are: 16 fold, 16 ghost slabs,
  // 3 commit votes, 3 commit acks. Ordinals 33..38 land the kill inside
  // the two-phase commit itself — votes (33..35) abort the staged
  // epoch, acks (36..38) kill the root just after it committed. Either
  // way no committed manifest may reference a missing shard.
  for (std::uint64_t ordinal = 33; ordinal <= 38; ++ordinal) {
    const std::string dir =
        tempDir("tkmc_failstop_commit_" + std::to_string(ordinal));
    ParallelWorld w(36);
    EamEnergyModel model(w.cet, w.net, w.eam);
    ParallelEngine engine(w.state, model, w.cet, failstopConfig(46, dir));
    FaultInjector inj(15);
    inj.armSchedule("comm.rank_kill", {ordinal});
    FaultScope scope(inj);
    for (int c = 0; c < 3; ++c) engine.runCycle();
    EXPECT_EQ(inj.triggerCount("comm.rank_kill"), 1u) << "ordinal " << ordinal;
    EXPECT_EQ(engine.recoveryStats().rankFailures, 1u) << "ordinal " << ordinal;
    EXPECT_EQ(engine.vacancyCount(), 6) << "ordinal " << ordinal;
    expectEveryCommittedEpochComplete(dir);
    expectMatchesFreshShrunkResume(engine, dir);
  }
}

TEST(RankFailStopChaos, TwentySeededKillSchedulesAllRecoverBitExactly) {
  // Chaos soak: twenty seeded schedules, each killing one random rank at
  // a random point of the synchronization protocol (fold, ghost
  // exchange, or two-phase commit, in a random cycle). Every run must
  // finish without hanging, conserve the physics, keep every committed
  // epoch loadable, and — when the kill fired — match the fresh
  // shrunk-grid resume bit-exactly.
  for (std::uint64_t s = 0; s < 20; ++s) {
    SCOPED_TRACE("schedule " + std::to_string(s));
    const std::string dir = tempDir("tkmc_chaos_" + std::to_string(s));
    ParallelWorld w(37);
    EamEnergyModel model(w.cet, w.net, w.eam);
    ParallelEngine engine(w.state, model, w.cet, failstopConfig(47, dir));
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
    expectMatchesFreshShrunkResume(engine, dir);
  }
}

TEST(RankFailStop, RecoveryMetricsReachTheTelemetryRegistry) {
  telemetry::resetAll();
  telemetry::ScopedEnable enable;
  const std::string dir = tempDir("tkmc_failstop_telemetry");
  ParallelWorld w(38);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, failstopConfig(48, dir));
  FaultInjector inj(16);
  inj.armSchedule("comm.rank_kill", {10});
  FaultScope scope(inj);
  for (int c = 0; c < 3; ++c) engine.runCycle();
  ASSERT_EQ(engine.recoveryStats().rankFailures, 1u);
  namespace tm = telemetry;
  EXPECT_EQ(tm::metrics().counter("recovery.rank_failures").value(), 1u);
  EXPECT_GE(tm::metrics().counter("recovery.epochs_rolled_back").value(), 0u);
  EXPECT_EQ(tm::metrics().histogram("recovery.detect_ms").count(), 1u);
  EXPECT_GT(tm::metrics().histogram("checkpoint.shard_bytes").count(), 0u);
  const std::string json = tm::metrics().toJson();
  EXPECT_NE(json.find("recovery.rank_failures"), std::string::npos);
  EXPECT_NE(json.find("recovery.detect_ms"), std::string::npos);
  EXPECT_NE(json.find("recovery.epochs_rolled_back"), std::string::npos);
  EXPECT_NE(json.find("checkpoint.shard_bytes"), std::string::npos);
  telemetry::resetAll();
}

}  // namespace
}  // namespace tkmc
