#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/parallel_engine.hpp"
#include "parallel/remote_store.hpp"

namespace tkmc {
namespace {

namespace fs = std::filesystem;

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
  const auto dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Fast retry policy for tests: three attempts, sub-millisecond waits.
RetryPolicy testRetry(int attempts = 3) {
  RetryPolicy p;
  p.maxAttempts = attempts;
  p.baseDelayMs = 0.01;
  p.multiplier = 2.0;
  p.maxDelayMs = 0.05;
  p.jitterFrac = 0.25;
  return p;
}

ShardStreamer::Config streamerConfig(int attempts = 3) {
  ShardStreamer::Config cfg;
  cfg.retry = testRetry(attempts);
  return cfg;
}

// --- Tiny hand-built epochs (same shapes as test_delta_checkpoint) -----

ShardRecord tinyFullShard(std::vector<std::uint8_t> species) {
  ShardRecord s;
  s.rank = 0;
  s.originCells = {0, 0, 0};
  s.extentCells = {1, 1, 1};
  s.rngState = {1, 2, 3, 4};
  s.vacancyOrder = {{0, 0, 0}};
  s.species = std::move(species);
  return s;
}

EpochManifest tinyManifest(std::uint64_t epoch) {
  EpochManifest m;
  m.epoch = epoch;
  m.rankGrid = {1, 1, 1};
  m.globalCells = {1, 1, 1};
  m.latticeConstant = 2.87;
  m.tStop = 1e-8;
  m.seed = 7;
  return m;
}

std::uint32_t commitTinyFull(CheckpointStore& store, std::uint64_t epoch,
                             std::vector<std::uint8_t> species) {
  store.beginEpoch(epoch);
  EpochManifest m = tinyManifest(epoch);
  m.shards.push_back(store.stageShard(epoch, tinyFullShard(std::move(species))));
  return store.commitEpoch(m);
}

std::uint32_t commitTinyDelta(CheckpointStore& store, std::uint64_t epoch,
                              std::uint64_t base, std::uint32_t baseCrc,
                              std::vector<std::uint8_t> pageSpecies) {
  store.beginEpoch(epoch);
  ShardRecord d = tinyFullShard({});
  d.delta = true;
  d.baseEpoch = base;
  d.rngState = {epoch, epoch + 1, epoch + 2, epoch + 3};
  ShardRecord::DirtyPage page;
  page.index = 0;
  page.species = std::move(pageSpecies);
  d.dirtyPages.push_back(std::move(page));
  EpochManifest m = tinyManifest(epoch);
  m.baseEpoch = base;
  m.baseCrc = baseCrc;
  m.shards.push_back(store.stageShard(epoch, d));
  return store.commitEpoch(m);
}

/// Streams every committed epoch of `store` into `remote` and waits for
/// the mirror to drain.
void streamAll(const CheckpointStore& store,
               std::shared_ptr<RemoteShardStore> remote,
               ShardStreamer::Config cfg = streamerConfig()) {
  ShardStreamer streamer(store.dir(), std::move(remote), cfg);
  for (const std::uint64_t epoch : store.epochs()) streamer.enqueue(epoch);
  ASSERT_TRUE(streamer.drain(30000.0));
  ASSERT_EQ(streamer.gaveUp(), 0u);
}

// --- Placement map format ----------------------------------------------

TEST(Placement, RoundTripsThroughEncodeAndParse) {
  PlacementMap map;
  map.epoch = 7;
  map.rows.push_back({"rank_0.tkc", 0xdeadbeef, 1234, "/mirror/epoch_7"});
  map.rows.push_back({"manifest.tkm", 0x00000001, 88, "/mirror/epoch_7"});
  const std::string encoded = encodePlacement(map);

  const PlacementMap parsed = parsePlacement(encoded, "test");
  EXPECT_EQ(parsed.epoch, 7u);
  ASSERT_EQ(parsed.rows.size(), 2u);
  EXPECT_EQ(parsed.rows[0].file, "rank_0.tkc");
  EXPECT_EQ(parsed.rows[0].crc, 0xdeadbeefu);
  EXPECT_EQ(parsed.rows[0].bytes, 1234u);
  EXPECT_EQ(parsed.rows[0].location, "/mirror/epoch_7");
  EXPECT_EQ(parsed.rows[1].file, "manifest.tkm");
}

TEST(Placement, TornOrTamperedMapsAreRejected) {
  PlacementMap map;
  map.epoch = 3;
  map.rows.push_back({"rank_0.tkc", 1, 10, "loc"});
  const std::string encoded = encodePlacement(map);

  // Truncation (a half-streamed placement map) loses the footer.
  EXPECT_THROW((void)parsePlacement(encoded.substr(0, encoded.size() / 2),
                                    "torn"),
               IoError);
  // A flipped byte fails the CRC.
  std::string tampered = encoded;
  tampered[tampered.size() / 3] ^= 0x01;
  EXPECT_THROW((void)parsePlacement(tampered, "rot"), IoError);
  // A row trying to escape the epoch directory is rejected even when
  // the CRC is formally correct.
  PlacementMap evil;
  evil.epoch = 3;
  evil.rows.push_back({"nested/escape", 1, 10, "loc"});
  EXPECT_THROW((void)parsePlacement(encodePlacement(evil), "escape"), IoError);
}

TEST(Placement, CrcFieldsMustBeExactlyEightHexDigits) {
  // A row CRC that is not exactly eight hex digits is a typed IoError,
  // even when the map is re-sealed so its footer passes: `zz` used to
  // escape as std::invalid_argument, and `1ffffffff` or `-1` used to
  // parse as ffffffff.
  PlacementMap map;
  map.epoch = 4;
  map.rows.push_back({"rank_0.tkc", 0xffffffff, 10, "loc"});
  const std::string encoded = encodePlacement(map);
  const std::string row = "rank_0.tkc ffffffff ";
  const std::size_t at = encoded.find(row);
  ASSERT_NE(at, std::string::npos);
  for (const char* field : {"zz", "1ffffffff", "-1", "fffffff", "+fffffff"}) {
    std::string body = encoded;
    body.replace(at, row.size(), std::string("rank_0.tkc ") + field + " ");
    body.resize(body.rfind("\ncrc32 ") + 1);
    char footer[32];
    std::snprintf(footer, sizeof(footer), "crc32 %08x\n",
                  crc32(body.data(), body.size()));
    EXPECT_THROW((void)parsePlacement(body + footer, field), IoError)
        << field;
  }
  EXPECT_EQ(parsePlacement(encoded, "intact").rows[0].crc, 0xffffffffu);
}

// --- DirRemoteStore ----------------------------------------------------

TEST(DirStore, PutGetListStatRoundTrip) {
  const std::string root = tempDir("tkmc_remote_roundtrip");
  DirRemoteStore remote(root);
  remote.put("epoch_3", "rank_0.tkc", "hello shard");
  remote.put("epoch_3", "manifest.tkm", "hello manifest");

  EXPECT_EQ(remote.get("epoch_3", "rank_0.tkc"), "hello shard");
  EXPECT_EQ(remote.listEpochs(), (std::vector<std::string>{"epoch_3"}));
  ASSERT_TRUE(remote.stat("epoch_3", "rank_0.tkc"));
  EXPECT_EQ(remote.stat("epoch_3", "rank_0.tkc")->bytes, 11u);
  EXPECT_FALSE(remote.stat("epoch_3", "missing"));
  EXPECT_THROW((void)remote.get("epoch_3", "missing"), IoError);

  // Overwrites replace in place: no .tmp or .bak debris in the mirror.
  remote.put("epoch_3", "rank_0.tkc", "rewritten");
  EXPECT_EQ(remote.get("epoch_3", "rank_0.tkc"), "rewritten");
  EXPECT_EQ(std::distance(fs::directory_iterator(fs::path(root) / "epoch_3"),
                          fs::directory_iterator()),
            2);
}

// --- ShardStreamer -----------------------------------------------------

TEST(Streamer, MirrorsCommittedEpochsAndWritesPlacementMaps) {
  CheckpointStore store(tempDir("tkmc_stream_src"));
  const std::uint32_t crc0 = commitTinyFull(store, 0, {0, 1});
  commitTinyDelta(store, 1, 0, crc0, {1, 1});
  const std::string remoteDir = tempDir("tkmc_stream_dst");
  auto remote = std::make_shared<DirRemoteStore>(remoteDir);
  streamAll(store, remote);

  for (const std::uint64_t epoch : {0u, 1u}) {
    const std::string epochDir = "epoch_" + std::to_string(epoch);
    const PlacementMap placement = parsePlacement(
        remote->get(epochDir, kPlacementFile), epochDir);
    EXPECT_EQ(placement.epoch, epoch);
    ASSERT_EQ(placement.rows.size(), 2u);  // one shard + the manifest
    EXPECT_EQ(placement.rows.back().file, "manifest.tkm");
    for (const PlacementMap::Row& row : placement.rows) {
      const std::string remoteCopy = remote->get(epochDir, row.file);
      // Byte-identical mirror, and the placement pins really match.
      EXPECT_EQ(remoteCopy,
                slurp(store.epochPath(epoch) + "/" + row.file));
      EXPECT_EQ(remoteCopy.size(), row.bytes);
      EXPECT_EQ(crc32(remoteCopy.data(), remoteCopy.size()), row.crc);
    }
  }
}

TEST(Streamer, InjectedPutFailuresRetryWithBackoffThenSucceed) {
  CheckpointStore store(tempDir("tkmc_stream_retry_src"));
  commitTinyFull(store, 0, {0, 1});
  auto remote =
      std::make_shared<DirRemoteStore>(tempDir("tkmc_stream_retry_dst"));

  FaultInjector inj(5);
  inj.armSchedule("remote.put_fail", {1, 2});  // first object fails twice
  FaultScope scope(inj);
  ShardStreamer streamer(store.dir(), remote, streamerConfig(5));
  streamer.enqueue(0);
  ASSERT_TRUE(streamer.drain(30000.0));

  EXPECT_EQ(streamer.retries(), 2u);
  EXPECT_EQ(streamer.gaveUp(), 0u);
  EXPECT_EQ(streamer.epochsStreamed(), 1u);
  EXPECT_NO_THROW(
      (void)parsePlacement(remote->get("epoch_0", kPlacementFile), "epoch_0"));
}

TEST(Streamer, DeadRemoteGivesUpBoundedlyAndLeavesLocalStoreIntact) {
  telemetry::resetAll();
  telemetry::ScopedEnable enable;
  CheckpointStore store(tempDir("tkmc_stream_dead_src"));
  commitTinyFull(store, 0, {0, 1});
  commitTinyFull(store, 1, {1, 0});
  auto remote =
      std::make_shared<DirRemoteStore>(tempDir("tkmc_stream_dead_dst"));

  FaultInjector inj(6);
  inj.armProbability("remote.put_fail", 1.0);
  FaultScope scope(inj);
  {
    ShardStreamer streamer(store.dir(), remote, streamerConfig(3));
    streamer.enqueue(0);
    streamer.enqueue(1);
    ASSERT_TRUE(streamer.drain(30000.0));
    // Every epoch's first object burns its 3 attempts, then the epoch is
    // abandoned — the queue always drains, so commit throttling can
    // never wedge on a dead remote.
    EXPECT_EQ(streamer.gaveUp(), 2u);
    EXPECT_EQ(streamer.epochsStreamed(), 0u);
    EXPECT_EQ(streamer.retries(), 4u);  // 2 retries per abandoned epoch
    EXPECT_EQ(streamer.waitForLag(0, 5000.0), 0);
  }
  // The local store is untouched and the remote holds no commit marker.
  EXPECT_TRUE(store.chainValid(0));
  EXPECT_TRUE(store.chainValid(1));
  EXPECT_FALSE(remote->stat("epoch_0", kPlacementFile));
  EXPECT_FALSE(remote->stat("epoch_1", kPlacementFile));
  EXPECT_EQ(telemetry::metrics().counter("remote.gave_up").value(), 2u);
  EXPECT_EQ(telemetry::metrics().counter("remote.retries").value(), 4u);
  telemetry::resetAll();
}

// --- Recovery through the remote copy ----------------------------------

TEST(RemoteRecovery, HealsAMissingLocalEpochFromTheRemoteCopy) {
  const std::string dir = tempDir("tkmc_heal_src");
  auto remote = std::make_shared<DirRemoteStore>(tempDir("tkmc_heal_dst"));
  {
    CheckpointStore store(dir);
    commitTinyFull(store, 0, {0, 1});
    commitTinyFull(store, 1, {2, 2});
    streamAll(store, remote);
  }
  // Node loss: the newest epoch's local directory dies with its node.
  const std::string epoch1 = dir + "/epoch_1";
  const std::string epoch1Manifest = slurp(epoch1 + "/manifest.tkm");
  fs::remove_all(epoch1);

  CheckpointStore store(dir);
  store.attachRemote(remote);
  ASSERT_EQ(store.newestCompleteEpoch(), std::uint64_t{1});
  EXPECT_EQ(store.remoteHeals(), 1u);
  // The healed directory is byte-identical to what was lost.
  EXPECT_EQ(slurp(epoch1 + "/manifest.tkm"), epoch1Manifest);
  const CheckpointStore::ResolvedEpoch resolved = store.loadNewestResolvable();
  EXPECT_EQ(resolved.epoch, 1u);
  ASSERT_EQ(resolved.shards.size(), 1u);
  EXPECT_EQ(resolved.shards[0].species, (std::vector<std::uint8_t>{2, 2}));
}

TEST(RemoteRecovery, TornRemoteCopyIsRefusedAndFallsBackAnEpoch) {
  const std::string dir = tempDir("tkmc_torn_src");
  const std::string remoteDir = tempDir("tkmc_torn_dst");
  auto remote = std::make_shared<DirRemoteStore>(remoteDir);
  {
    CheckpointStore store(dir);
    commitTinyFull(store, 0, {0, 1});
    commitTinyFull(store, 1, {2, 2});
    streamAll(store, remote);
  }
  fs::remove_all(dir + "/epoch_1");
  // Half-stream the remote copy of epoch 1: its shard is torn, so the
  // placement CRC pin no longer matches.
  fs::resize_file(remoteDir + "/epoch_1/rank_0.tkc", 10);

  CheckpointStore store(dir);
  store.attachRemote(remote);
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});
  const CheckpointStore::ResolvedEpoch resolved = store.loadNewestResolvable();
  EXPECT_EQ(resolved.epoch, 0u);
  EXPECT_EQ(resolved.shards[0].species, (std::vector<std::uint8_t>{0, 1}));
  // The refused heal never replaced anything local.
  EXPECT_FALSE(fs::exists(dir + "/epoch_1"));
}

TEST(RemoteRecovery, HalfStreamedEpochWithoutPlacementMapIsIgnored) {
  const std::string dir = tempDir("tkmc_inflight_src");
  auto remote = std::make_shared<DirRemoteStore>(tempDir("tkmc_inflight_dst"));
  {
    CheckpointStore store(dir);
    commitTinyFull(store, 0, {0, 1});
    streamAll(store, remote);
  }
  // An epoch whose copy never finished: objects but no placement map.
  remote->put("epoch_5", "rank_0.tkc", "half streamed");
  fs::remove_all(dir + "/epoch_0");

  CheckpointStore store(dir);
  store.attachRemote(remote);
  // Epoch 5 is a candidate (remote listing) but refuses to heal; the
  // walk falls through to the fully streamed epoch 0.
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});
  EXPECT_EQ(store.loadNewestResolvable().epoch, 0u);
}

TEST(RemoteRecovery, TruncatedDeltaChainFailsOverToAnOlderEpoch) {
  // Satellite regression: a delta epoch whose base directory was GC'd
  // (hand-truncated here) must fail over to the next older complete
  // epoch instead of surfacing a terminal IoError.
  CheckpointStore store(tempDir("tkmc_truncated_chain"));
  const std::uint32_t crc0 = commitTinyFull(store, 0, {0, 1});
  const std::uint32_t crc1 = commitTinyDelta(store, 1, 0, crc0, {1, 1});
  commitTinyDelta(store, 2, 1, crc1, {2, 0});
  ASSERT_EQ(store.newestCompleteEpoch(), std::uint64_t{2});

  fs::remove_all(store.epochPath(1));  // the GC'd base link
  const CheckpointStore::ResolvedEpoch resolved = store.loadNewestResolvable();
  EXPECT_EQ(resolved.epoch, 0u);
  EXPECT_EQ(resolved.shards[0].species, (std::vector<std::uint8_t>{0, 1}));

  // Only when no epoch resolves at all does recovery raise.
  fs::remove_all(store.epochPath(0));
  EXPECT_THROW((void)store.loadNewestResolvable(), IoError);
}

// --- Exhaustive damage sweep over the read path -------------------------

void expectSameShards(const std::vector<ShardRecord>& got,
                      const std::vector<ShardRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_FALSE(got[i].delta);
    EXPECT_EQ(got[i].rank, want[i].rank);
    EXPECT_EQ(got[i].originCells, want[i].originCells);
    EXPECT_EQ(got[i].extentCells, want[i].extentCells);
    EXPECT_EQ(got[i].rngState, want[i].rngState);
    EXPECT_EQ(got[i].vacancyOrder, want[i].vacancyOrder);
    EXPECT_EQ(got[i].species, want[i].species);
  }
}

TEST(ReadPathDamage, EveryFileDamageResolvesTheNewestUntouchedChain) {
  // Full 0, delta 1 -> 0, delta 2 -> 1, full 3, delta 4 -> 3. Every
  // damage to every file must leave newestCompleteEpoch() and
  // loadNewestResolvable() on the newest epoch whose chain it does not
  // touch, with that epoch's undamaged state; startup GC must remove the
  // damaged epoch and nothing that resolves. With a remote mirror the
  // damaged epoch heals exactly once instead.
  const std::string pristine = tempDir("tkmc_damage_pristine");
  auto remote = std::make_shared<DirRemoteStore>(tempDir("tkmc_damage_remote"));
  std::map<std::uint64_t, std::vector<ShardRecord>> reference;
  {
    CheckpointStore store(pristine);
    const std::uint32_t crc0 = commitTinyFull(store, 0, {0, 1});
    const std::uint32_t crc1 = commitTinyDelta(store, 1, 0, crc0, {1, 1});
    commitTinyDelta(store, 2, 1, crc1, {2, 0});
    const std::uint32_t crc3 = commitTinyFull(store, 3, {2, 2});
    commitTinyDelta(store, 4, 3, crc3, {0, 2});
    streamAll(store, remote);
    for (const std::uint64_t e : store.epochs())
      reference[e] = store.resolveShards(e);
  }
  const std::vector<std::uint64_t> all = {0, 1, 2, 3, 4};
  const std::map<std::uint64_t, std::vector<std::uint64_t>> chainOf = {
      {0, {0}}, {1, {1, 0}}, {2, {2, 1, 0}}, {3, {3}}, {4, {4, 3}}};
  const auto touches = [&](std::uint64_t epoch, std::uint64_t damaged) {
    const std::vector<std::uint64_t>& chain = chainOf.at(epoch);
    return std::find(chain.begin(), chain.end(), damaged) != chain.end();
  };
  const std::vector<std::string> damages = {"delete", "truncate", "flip"};
  for (const bool mirrored : {false, true})
    for (const std::uint64_t damaged : all)
      for (const std::string file : {"manifest.tkm", "rank_0.tkc"})
        for (const std::string& damage : damages) {
          SCOPED_TRACE((mirrored ? "mirrored, " : "local, ") + damage + " " +
                       "epoch_" + std::to_string(damaged) + "/" + file);
          const std::string dir = tempDir("tkmc_damage_case");
          fs::copy(pristine, dir, fs::copy_options::recursive);
          const std::string path =
              dir + "/epoch_" + std::to_string(damaged) + "/" + file;
          if (damage == "delete") {
            fs::remove(path);
          } else if (damage == "truncate") {
            fs::resize_file(path, fs::file_size(path) / 2);
          } else {
            std::string contents = slurp(path);
            contents[contents.size() / 2] ^= 0x01;
            std::ofstream(path, std::ios::binary | std::ios::trunc) << contents;
          }
          CheckpointStore store(dir);
          if (mirrored) store.attachRemote(remote);
          std::uint64_t expected = 4;
          while (!mirrored && touches(expected, damaged)) --expected;

          EXPECT_EQ(store.newestCompleteEpoch(), expected);
          const CheckpointStore::ResolvedEpoch newest =
              store.loadNewestResolvable();
          EXPECT_EQ(newest.epoch, expected);
          expectSameShards(newest.shards, reference.at(expected));
          std::vector<std::uint64_t> resolving;
          for (const std::uint64_t e : store.epochs())
            if (store.chainValid(e)) resolving.push_back(e);

          EXPECT_EQ(store.gcStaleArtifacts(), mirrored ? 0 : 1);
          std::vector<std::uint64_t> kept = all;
          if (!mirrored) kept.erase(kept.begin() + static_cast<long>(damaged));
          EXPECT_EQ(store.epochs(), kept);
          for (const std::uint64_t e : resolving)
            expectSameShards(store.resolveShards(e), reference.at(e));
          for (const std::uint64_t e : all)
            EXPECT_EQ(store.chainValid(e), mirrored || !touches(e, damaged))
                << "epoch " << e;
          EXPECT_EQ(store.remoteHeals(), mirrored ? 1u : 0u);
        }
}

// --- Engine end to end: node loss, heal, bit-exact resume ---------------

ParallelConfig remoteConfig(std::uint64_t seed, const std::string& dir,
                            const std::string& remoteDir) {
  ParallelConfig cfg;
  cfg.seed = seed;
  cfg.tStop = 5e-8;
  cfg.rankGrid = {2, 2, 1};
  cfg.checkpointDir = dir;
  cfg.checkpointCadence = 1;
  cfg.heartbeatIntervalMs = 5.0;
  cfg.heartbeatTimeoutMs = 20.0;
  cfg.remoteDir = remoteDir;
  cfg.remoteRetries = 3;
  return cfg;
}

TEST(RemoteEngine, NodeLossResumeFromRemoteMatchesIntactLocalResume) {
  const std::string dirA = tempDir("tkmc_nodeloss_a");
  const std::string dirB = tempDir("tkmc_nodeloss_b");
  const std::string remoteDir = tempDir("tkmc_nodeloss_remote");
  std::uint64_t cyclesRun = 0;
  {
    ParallelWorld w(71);
    EamEnergyModel model(w.cet, w.net, w.eam);
    ParallelEngine engine(w.state, model, w.cet,
                          remoteConfig(81, dirA, remoteDir));
    for (int c = 0; c < 4; ++c) engine.runCycle();
    cyclesRun = engine.cycles();
    ASSERT_NE(engine.shardStreamer(), nullptr);
    ASSERT_TRUE(engine.shardStreamer()->drain(30000.0));
    ASSERT_EQ(engine.shardStreamer()->gaveUp(), 0u);
  }
  // Twin B: an intact copy of the local checkpoint tree, taken before
  // the damage. Then the node loss: A's newest epoch dir is deleted.
  fs::copy(dirA, dirB, fs::copy_options::recursive);
  CheckpointStore probeB(dirB);
  const std::uint64_t newest = *probeB.newestCompleteEpoch();
  fs::remove_all(dirA + "/epoch_" + std::to_string(newest));

  // Resume A through the remote heal; resume B from its intact tree.
  ParallelWorld wa(71), wb(71);
  EamEnergyModel ma(wa.cet, wa.net, wa.eam), mb(wb.cet, wb.net, wb.eam);
  ParallelConfig cfg = remoteConfig(81, "", "");
  cfg.checkpointDir.clear();
  cfg.remoteDir.clear();
  cfg.heartbeatTimeoutMs = 0.0;

  CheckpointStore storeA(dirA);
  storeA.attachRemote(std::make_shared<DirRemoteStore>(remoteDir));
  ASSERT_EQ(storeA.newestCompleteEpoch(), newest);
  EXPECT_GE(storeA.remoteHeals(), 1u);
  ParallelEngine resumedA(ma, wa.cet, cfg, storeA, newest);
  ParallelEngine resumedB(mb, wb.cet, cfg, probeB, newest);

  for (std::uint64_t c = cyclesRun; c < cyclesRun + 3; ++c) {
    resumedA.runCycle();
    resumedB.runCycle();
  }
  // Pulling the lost shard from the remote copy is bit-identical to a
  // resume that never lost it.
  EXPECT_EQ(resumedA.totalEvents(), resumedB.totalEvents());
  EXPECT_EQ(resumedA.discardedEvents(), resumedB.discardedEvents());
  EXPECT_DOUBLE_EQ(resumedA.time(), resumedB.time());
  EXPECT_TRUE(resumedA.assembleGlobalState() == resumedB.assembleGlobalState());
}

TEST(RemoteEngine, InjectedStreamFailuresNeverCorruptOrBlockLocalCommits) {
  const std::string dir = tempDir("tkmc_chaosput_local");
  const std::string remoteDir = tempDir("tkmc_chaosput_remote");
  ParallelWorld w(72);
  EamEnergyModel model(w.cet, w.net, w.eam);
  FaultInjector inj(9);
  inj.armProbability("remote.put_fail", 0.3);
  inj.armProbability("remote.torn_copy", 0.2);
  FaultScope scope(inj);
  ParallelConfig cfg = remoteConfig(82, dir, remoteDir);
  ParallelEngine engine(w.state, model, w.cet, cfg);
  for (int c = 0; c < 4; ++c) engine.runCycle();
  ASSERT_TRUE(engine.shardStreamer()->drain(60000.0));

  // Local commits are unaffected no matter what the remote did.
  CheckpointStore store(dir);
  ASSERT_FALSE(store.epochs().empty());
  for (const std::uint64_t epoch : store.epochs())
    EXPECT_TRUE(store.chainValid(epoch)) << "epoch " << epoch;
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{engine.cycles()});

  // Every remote epoch that claims to be committed must verify against
  // its placement map — a torn copy may exist only WITHOUT a marker or
  // with a marker whose pins expose it.
  DirRemoteStore remote(remoteDir);
  for (const std::string& epochDir : remote.listEpochs()) {
    if (!remote.stat(epochDir, kPlacementFile)) continue;  // given up
    PlacementMap placement;
    try {
      placement = parsePlacement(remote.get(epochDir, kPlacementFile),
                                 epochDir);
    } catch (const IoError&) {
      continue;  // torn marker: refused by recovery, so harmless
    }
    for (const PlacementMap::Row& row : placement.rows) {
      const std::string contents = remote.get(epochDir, row.file);
      const bool sound = contents.size() == row.bytes &&
                         crc32(contents.data(), contents.size()) == row.crc;
      // A mismatch here is exactly what tryHealFromRemote refuses; it
      // must never be the only copy of a *locally sound* epoch, which
      // we already verified above.
      if (!sound) SUCCEED();
    }
  }
}

}  // namespace
}  // namespace tkmc
