#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/eam_energy_model.hpp"
#include "lattice/species_store.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/parallel_engine.hpp"

namespace tkmc {
namespace {

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

/// 2x2x1 fail-stop stack with incremental checkpoints armed.
ParallelConfig deltaConfig(std::uint64_t seed, const std::string& dir) {
  ParallelConfig cfg;
  cfg.seed = seed;
  cfg.tStop = 5e-8;
  cfg.rankGrid = {2, 2, 1};
  cfg.checkpointDir = dir;
  cfg.checkpointCadence = 1;
  cfg.heartbeatIntervalMs = 5.0;
  cfg.heartbeatTimeoutMs = 20.0;
  cfg.checkpointMode = CheckpointMode::kDelta;
  return cfg;
}

void flipByteInFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  ASSERT_FALSE(contents.empty());
  contents[contents.size() / 2] ^= 0x01;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

/// Recomputes the `crc32` footer of an edited sealed file, so the parser
/// runs past the integrity check and meets the edit itself.
std::string reseal(std::string contents) {
  contents.resize(contents.rfind("\ncrc32 ") + 1);
  char footer[32];
  std::snprintf(footer, sizeof(footer), "crc32 %08x\n",
                crc32(contents.data(), contents.size()));
  return contents + footer;
}

// --- Hand-built one-rank chains (store-level semantics) ----------------

ShardRecord tinyFullShard(std::vector<std::uint8_t> species) {
  ShardRecord s;
  s.rank = 0;
  s.originCells = {0, 0, 0};
  s.extentCells = {1, 1, 1};  // two sites: one page, partially filled
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

TEST(DeltaStore, HandBuiltChainResolvesByReplayingDirtyPages) {
  CheckpointStore store(tempDir("tkmc_delta_chain"));
  const std::uint32_t crc0 = commitTinyFull(store, 0, {0, 1});
  const std::uint32_t crc1 = commitTinyDelta(store, 1, 0, crc0, {1, 1});
  commitTinyDelta(store, 2, 1, crc1, {2, 0});

  EXPECT_TRUE(store.chainValid(0));
  EXPECT_TRUE(store.chainValid(1));
  EXPECT_TRUE(store.chainValid(2));
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{2});

  // The raw shard stays a delta; resolution replays the chain.
  const EpochManifest m2 = store.loadManifest(2);
  ASSERT_TRUE(m2.isDelta());
  EXPECT_EQ(*m2.baseEpoch, 1u);
  const ShardRecord raw = store.loadShard(2, m2.shards[0]);
  EXPECT_TRUE(raw.delta);
  EXPECT_EQ(raw.baseEpoch, 1u);
  ASSERT_EQ(raw.dirtyPages.size(), 1u);

  const std::vector<ShardRecord> at2 = store.resolveShards(2);
  ASSERT_EQ(at2.size(), 1u);
  EXPECT_FALSE(at2[0].delta);
  EXPECT_EQ(at2[0].species, (std::vector<std::uint8_t>{2, 0}));
  EXPECT_EQ(at2[0].rngState, (std::array<std::uint64_t, 4>{2, 3, 4, 5}));

  // Intermediate links resolve to their own state, not the tip's.
  const std::vector<ShardRecord> at1 = store.resolveShards(1);
  EXPECT_EQ(at1[0].species, (std::vector<std::uint8_t>{1, 1}));
  const std::vector<ShardRecord> at0 = store.resolveShards(0);
  EXPECT_EQ(at0[0].species, (std::vector<std::uint8_t>{0, 1}));
}

TEST(DeltaStore, RecommittedBasePinBreaksTheChain) {
  CheckpointStore store(tempDir("tkmc_delta_pin"));
  const std::uint32_t crc0 = commitTinyFull(store, 0, {0, 1});
  commitTinyDelta(store, 1, 0, crc0, {1, 0});
  ASSERT_TRUE(store.chainValid(1));

  // Replace epoch 0 with different content: the delta's recorded pin no
  // longer matches the sealed base manifest, so the chain breaks loudly
  // instead of reassembling against the wrong base.
  commitTinyFull(store, 0, {2, 2});
  EXPECT_TRUE(store.chainValid(0));
  EXPECT_FALSE(store.chainValid(1));
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});
  EXPECT_THROW((void)store.resolveShards(1), IoError);
}

TEST(DeltaStore, OverDepthChainsAreInvalidForAStricterReader) {
  const std::string dir = tempDir("tkmc_delta_depth");
  CheckpointStore writer(dir);
  std::uint32_t crc = commitTinyFull(writer, 0, {0, 1});
  for (std::uint64_t e = 1; e <= 3; ++e)
    crc = commitTinyDelta(writer, e, e - 1, crc, {1, static_cast<std::uint8_t>(e % 3)});
  EXPECT_TRUE(writer.chainValid(3));  // depth 3 <= default bound 8
  EXPECT_EQ(writer.newestCompleteEpoch(), std::uint64_t{3});

  CheckpointStore reader(dir);
  reader.setMaxDeltaChain(2);
  EXPECT_FALSE(reader.chainValid(3));
  EXPECT_TRUE(reader.chainValid(2));
  EXPECT_EQ(reader.newestCompleteEpoch(), std::uint64_t{2});
  EXPECT_THROW((void)reader.resolveShards(3), IoError);
  EXPECT_THROW(reader.setMaxDeltaChain(0), Error);
}

TEST(DeltaStore, MissingBaseLinkDisqualifiesDescendants) {
  CheckpointStore store(tempDir("tkmc_delta_missing_base"));
  std::uint32_t crc = commitTinyFull(store, 0, {0, 1});
  for (std::uint64_t e = 1; e <= 3; ++e)
    crc = commitTinyDelta(store, e, e - 1, crc, {1, 1});
  ASSERT_EQ(store.newestCompleteEpoch(), std::uint64_t{3});

  std::filesystem::remove_all(store.epochPath(2));
  EXPECT_FALSE(store.chainValid(3));  // its base chain has a hole
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{1});
  EXPECT_THROW((void)store.resolveShards(3), IoError);

  std::filesystem::remove_all(store.epochPath(1));
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});
}

TEST(DeltaStore, CrcMismatchedLinkDisqualifiesDescendantsButGcKeepsThem) {
  CheckpointStore store(tempDir("tkmc_delta_rot"));
  std::uint32_t crc = commitTinyFull(store, 0, {0, 1});
  for (std::uint64_t e = 1; e <= 3; ++e)
    crc = commitTinyDelta(store, e, e - 1, crc, {2, 0});
  flipByteInFile(store.epochPath(1) + "/rank_0.tkc");

  // The rotted link and everything chained through it is invalid...
  EXPECT_FALSE(store.chainValid(1));
  EXPECT_FALSE(store.chainValid(2));
  EXPECT_FALSE(store.chainValid(3));
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});

  // ...and startup GC removes only the locally torn epoch. Epochs 2 and
  // 3 are locally sound (their base might reappear on a shared
  // filesystem), so they survive the sweep and stay skipped by readers.
  EXPECT_EQ(store.gcStaleArtifacts(), 1);
  EXPECT_EQ(store.epochs(), (std::vector<std::uint64_t>{0, 2, 3}));
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});
}

TEST(DeltaStore, AnEpochMixingShardKindsDoesNotResolve) {
  // A full manifest listing a delta shard would reassemble from an empty
  // run; a delta manifest listing a full shard has nothing to replay.
  CheckpointStore store(tempDir("tkmc_delta_mixed_kinds"));
  const std::uint32_t crc0 = commitTinyFull(store, 0, {0, 1});
  ShardRecord delta = tinyFullShard({});
  delta.delta = true;
  store.beginEpoch(1);
  EpochManifest full = tinyManifest(1);
  full.shards.push_back(store.stageShard(1, delta));
  store.commitEpoch(full);
  store.beginEpoch(2);
  EpochManifest deltaManifest = tinyManifest(2);
  deltaManifest.baseEpoch = 0;
  deltaManifest.baseCrc = crc0;
  deltaManifest.shards.push_back(store.stageShard(2, tinyFullShard({1, 1})));
  store.commitEpoch(deltaManifest);

  EXPECT_FALSE(store.chainValid(1));
  EXPECT_FALSE(store.chainValid(2));
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});
  EXPECT_EQ(store.loadNewestResolvable().epoch, 0u);
}

TEST(DeltaStore, StartupGCRemovesTmpDirsAndTornEpochs) {
  CheckpointStore store(tempDir("tkmc_delta_gc"));
  commitTinyFull(store, 0, {0, 1});
  store.beginEpoch(1);  // orphaned staging dir: crash before commit
  store.stageShard(1, tinyFullShard({1, 1}));
  commitTinyFull(store, 2, {2, 2});
  std::filesystem::resize_file(store.epochPath(2) + "/manifest.tkm", 40);

  ASSERT_TRUE(std::filesystem::exists(store.stagePath(1)));
  EXPECT_EQ(store.gcStaleArtifacts(), 2);
  EXPECT_FALSE(std::filesystem::exists(store.stagePath(1)));
  EXPECT_EQ(store.epochs(), (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(store.gcStaleArtifacts(), 0);  // idempotent
}

TEST(DeltaStore, CrcFieldsMustBeExactlyEightHexDigits) {
  // Every CRC field of a manifest — the base link, each shard row, and
  // the footer — takes exactly eight hex digits. A longer field used to
  // be read as its first eight digits and accepted.
  CheckpointStore store(tempDir("tkmc_delta_crc_fields"));
  const std::uint32_t crc0 = commitTinyFull(store, 0, {0, 1});
  commitTinyDelta(store, 1, 0, crc0, {1, 1});
  const std::string path = store.epochPath(1) + "/manifest.tkm";
  const std::string intact = slurp(path);
  const EpochManifest m = store.loadManifest(1);
  char baseCrc[16], rowCrc[16], selfCrc[16];
  std::snprintf(baseCrc, sizeof(baseCrc), "%08x", m.baseCrc);
  std::snprintf(rowCrc, sizeof(rowCrc), "%08x", m.shards[0].crc);
  std::snprintf(selfCrc, sizeof(selfCrc), "%08x", m.selfCrc);

  const auto edited = [&](const std::string& from, const std::string& to) {
    std::string contents = intact;
    const std::size_t at = contents.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return contents.replace(at, from.size(), to);
  };
  const std::string base = std::string("base 0 ") + baseCrc + "\n";
  const std::string row = std::string("rank_0.tkc ") + rowCrc + " ";
  for (const std::string& contents :
       {reseal(edited(base, std::string("base 0 ") + baseCrc + "0\n")),
        reseal(edited(base, "base 0 -1\n")),
        reseal(edited(row, std::string("rank_0.tkc 0") + rowCrc + " ")),
        reseal(edited(row, "rank_0.tkc zz ")),
        edited(std::string("crc32 ") + selfCrc + "\n",
               std::string("crc32 ") + selfCrc + "0\n")}) {
    spit(path, contents);
    EXPECT_THROW((void)store.loadManifest(1), IoError) << contents;
  }
  spit(path, intact);
  EXPECT_EQ(store.loadManifest(1).selfCrc, m.selfCrc);
}

TEST(DeltaStore, MakeDeltaShardIsTheInverseOfApplyDeltaShard) {
  // A two-and-a-half-page run: page 0 unchanged, pages 1 and 2 changed
  // (page 2 is the short tail, and has no base hash at all).
  const std::size_t pageSites = SpeciesStore::kPageSites;
  ShardRecord base = tinyFullShard(
      std::vector<std::uint8_t>(2 * pageSites + pageSites / 2, 0));
  base.extentCells = {1, 1, static_cast<int>(base.species.size() / 2)};
  ShardRecord next = base;
  next.species[pageSites + 3] = 1;
  next.species.back() = 2;
  next.rngState = {9, 9, 9, 9};
  next.vacancyOrder = {{1, 1, 1}};
  std::vector<std::uint32_t> baseHashes =
      SpeciesStore::runPageHashes(base.species);
  baseHashes.pop_back();

  const ShardRecord delta = CheckpointStore::makeDeltaShard(
      next, 4, baseHashes, SpeciesStore::runPageHashes(next.species));
  EXPECT_TRUE(delta.delta);
  EXPECT_EQ(delta.baseEpoch, 4u);
  EXPECT_TRUE(delta.species.empty());
  ASSERT_EQ(delta.dirtyPages.size(), 2u);
  EXPECT_EQ(delta.dirtyPages[0].index, 1u);
  EXPECT_EQ(delta.dirtyPages[1].index, 2u);
  EXPECT_EQ(delta.dirtyPages[1].species.size(), pageSites / 2);

  CheckpointStore::applyDeltaShard(base, delta);
  EXPECT_EQ(base.species, next.species);
  EXPECT_EQ(base.rngState, next.rngState);
  EXPECT_EQ(base.vacancyOrder, next.vacancyOrder);
}

TEST(DeltaStore, ApplyDeltaShardRejectsAForeignBoxOrAnOverrunAsIoError) {
  ShardRecord base = tinyFullShard({0, 1});
  ShardRecord moved = tinyFullShard({});
  moved.delta = true;
  moved.originCells = {1, 0, 0};
  EXPECT_THROW(CheckpointStore::applyDeltaShard(base, moved), IoError);
  ShardRecord overrun = tinyFullShard({});
  overrun.delta = true;
  overrun.dirtyPages.push_back({1, {0, 0}});  // page 1 of a two-site run
  EXPECT_THROW(CheckpointStore::applyDeltaShard(base, overrun), IoError);
  EXPECT_EQ(base.species, (std::vector<std::uint8_t>{0, 1}));
}

// --- Sealed deltas that do not resolve ---------------------------------

ParallelConfig oneRankConfig(const std::string& dir) {
  ParallelConfig cfg = deltaConfig(71, dir);
  cfg.rankGrid = {1, 1, 1};
  cfg.heartbeatTimeoutMs = 0.0;
  return cfg;
}

/// Epoch 0 from a one-rank engine, then a sealed delta epoch 1 pinned to
/// it whose only shard is rank 0's box, renamed to `rank` and moved to
/// `origin`. Every file parses; whether epoch 1 resolves is the question.
void commitDeltaOverOneRankBase(const std::string& dir, int rank,
                                Vec3i origin) {
  {
    ParallelWorld w(71);
    EamEnergyModel model(w.cet, w.net, w.eam);
    ParallelEngine engine(w.state, model, w.cet, oneRankConfig(dir));
  }
  CheckpointStore store(dir);
  const EpochManifest base = store.loadManifest(0);
  ASSERT_EQ(base.shards.size(), 1u);
  ShardRecord delta = store.loadShard(0, base.shards[0]);
  delta.species.clear();
  delta.delta = true;
  delta.rank = rank;
  delta.originCells = origin;
  EpochManifest m = base;
  m.epoch = 1;
  m.baseEpoch = 0;
  m.baseCrc = base.selfCrc;
  m.shards.clear();
  store.beginEpoch(1);
  m.shards.push_back(store.stageShard(1, delta));
  store.commitEpoch(m);
}

/// The store's every reader agrees epoch 1 is not a restart point, and a
/// resume from the epoch they pick succeeds.
void expectEveryReaderPicksTheBase(const std::string& dir) {
  CheckpointStore store(dir);
  ASSERT_EQ(store.epochs(), (std::vector<std::uint64_t>{0, 1}));
  EXPECT_FALSE(store.chainValid(1));
  EXPECT_THROW((void)store.resolveShards(1), IoError);
  ASSERT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});
  EXPECT_EQ(store.loadNewestResolvable().epoch, 0u);
  ParallelWorld w(71);
  EamEnergyModel model(w.cet, w.net, w.eam);
  EXPECT_NO_THROW(ParallelEngine(model, w.cet, oneRankConfig(""), store,
                                 *store.newestCompleteEpoch()));
}

TEST(UnresolvableDelta, ARankItsBaseLacksIsNotComplete) {
  const std::string dir = tempDir("tkmc_delta_foreign_rank");
  commitDeltaOverOneRankBase(dir, 1, {0, 0, 0});
  expectEveryReaderPicksTheBase(dir);
}

TEST(UnresolvableDelta, ABoxItsBaseLacksIsNotComplete) {
  const std::string dir = tempDir("tkmc_delta_foreign_box");
  commitDeltaOverOneRankBase(dir, 0, {1, 0, 0});
  expectEveryReaderPicksTheBase(dir);
}

// --- Engine-written delta epochs ---------------------------------------

TEST(DeltaEngine, CadenceOneRunWritesChainedDeltasThatResolveBitExactly) {
  const std::string dir = tempDir("tkmc_delta_engine");
  ParallelWorld w(51);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, deltaConfig(61, dir));
  for (int c = 0; c < 4; ++c) engine.runCycle();

  CheckpointStore store(dir);
  ASSERT_EQ(store.epochs(), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(store.loadManifest(0).isDelta());
  std::uint32_t expectedPin = store.loadManifest(0).selfCrc;
  for (std::uint64_t e = 1; e <= 4; ++e) {
    const EpochManifest m = store.loadManifest(e);
    ASSERT_TRUE(m.isDelta()) << "epoch " << e;
    EXPECT_EQ(*m.baseEpoch, e - 1) << "epoch " << e;
    EXPECT_EQ(m.baseCrc, expectedPin) << "epoch " << e;
    expectedPin = m.selfCrc;
  }
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{4});

  const LatticeState rebuilt = CheckpointStore::reassemble(
      store.loadManifest(4), store.resolveShards(4));
  EXPECT_TRUE(rebuilt == engine.assembleGlobalState());
  EXPECT_EQ(rebuilt.contentHash(), engine.assembleGlobalState().contentHash());
}

TEST(DeltaEngine, ResumeFromADeltaEpochContinuesBitExactly) {
  const std::string dir = tempDir("tkmc_delta_resume");
  ParallelWorld a(52), b(52);
  EamEnergyModel ma(a.cet, a.net, a.eam), mb(b.cet, b.net, b.eam);
  ParallelEngine original(a.state, ma, a.cet, deltaConfig(62, dir));
  for (int c = 0; c < 6; ++c) original.runCycle();

  // Delta checkpointing must be side-effect-free on the physics.
  ParallelConfig plain = deltaConfig(62, "");
  plain.checkpointDir.clear();
  plain.heartbeatTimeoutMs = 0.0;
  ParallelEngine witness(b.state, mb, b.cet, plain);
  for (int c = 0; c < 6; ++c) witness.runCycle();
  ASSERT_TRUE(original.assembleGlobalState() == witness.assembleGlobalState());

  // Epoch 4 is a delta link; resuming from it replays its base chain
  // and restores the exact RNG streams, so cycles 5 and 6 match.
  ParallelWorld c(52);
  EamEnergyModel mc(c.cet, c.net, c.eam);
  ParallelConfig resumeCfg = deltaConfig(62, "");
  resumeCfg.checkpointDir.clear();
  resumeCfg.heartbeatTimeoutMs = 0.0;
  CheckpointStore store(dir);
  ASSERT_TRUE(store.loadManifest(4).isDelta());
  ParallelEngine resumed(mc, c.cet, resumeCfg, store, 4);
  EXPECT_EQ(resumed.cycles(), 4u);
  while (resumed.cycles() < original.cycles()) resumed.runCycle();
  EXPECT_EQ(resumed.totalEvents(), original.totalEvents());
  EXPECT_EQ(resumed.discardedEvents(), original.discardedEvents());
  EXPECT_TRUE(resumed.assembleGlobalState() == original.assembleGlobalState());
}

TEST(DeltaEngine, ConsolidationBoundsChainsAndGCsSupersededDeltas) {
  const std::string dir = tempDir("tkmc_delta_consolidate");
  ParallelWorld w(53);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = deltaConfig(63, dir);
  cfg.maxDeltaChain = 3;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  for (int c = 0; c < 8; ++c) engine.runCycle();

  // Epochs 4 and 8 consolidate (a fourth link would exceed the bound);
  // each consolidation GCs the deltas it supersedes. Only the
  // self-contained fulls remain.
  CheckpointStore store(dir);
  EXPECT_EQ(store.epochs(), (std::vector<std::uint64_t>{0, 4, 8}));
  for (const std::uint64_t e : store.epochs())
    EXPECT_FALSE(store.loadManifest(e).isDelta()) << "epoch " << e;
  EXPECT_EQ(store.newestCompleteEpoch(), std::uint64_t{8});
  const LatticeState rebuilt = CheckpointStore::reassemble(
      store.loadManifest(8), store.resolveShards(8));
  EXPECT_TRUE(rebuilt == engine.assembleGlobalState());
}

TEST(DeltaEngine, CorruptShardWriteFallsBackToTheNewestValidChain) {
  const std::string dir = tempDir("tkmc_delta_rot_write");
  ParallelWorld w(54);
  EamEnergyModel model(w.cet, w.net, w.eam);
  // The scope must cover construction: the construction epoch stages
  // hits 1..4, so ordinal 6 rots a shard of epoch 1 between CRC
  // computation and the write.
  FaultInjector inj(17);
  inj.armSchedule("checkpoint.shard_corrupt_write", {6});
  FaultScope scope(inj);
  ParallelEngine engine(w.state, model, w.cet, deltaConfig(64, dir));
  for (int c = 0; c < 3; ++c) engine.runCycle();
  EXPECT_EQ(inj.triggerCount("checkpoint.shard_corrupt_write"), 1u);

  // Epoch 1 fails its manifest CRC; epochs 2 and 3 chain through it, so
  // the newest epoch a reader may trust is the construction full.
  CheckpointStore store(dir);
  ASSERT_EQ(store.epochs(), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_FALSE(store.chainValid(1));
  EXPECT_FALSE(store.chainValid(3));
  ASSERT_EQ(store.newestCompleteEpoch(), std::uint64_t{0});

  // Falling back there and replaying is bit-exact with the live engine.
  ParallelWorld f(54);
  EamEnergyModel fm(f.cet, f.net, f.eam);
  ParallelConfig cfg = deltaConfig(64, "");
  cfg.checkpointDir.clear();
  cfg.heartbeatTimeoutMs = 0.0;
  ParallelEngine resumed(fm, f.cet, cfg, store, 0);
  while (resumed.cycles() < engine.cycles()) resumed.runCycle();
  EXPECT_TRUE(resumed.assembleGlobalState() == engine.assembleGlobalState());
}

// --- Elastic grow recovery ---------------------------------------------

/// Fresh engine resumed from the recovery epoch on the engine's final
/// grid must replay to the same state — recovery is bit-reproducible.
/// A *delta* recovery epoch may have been GC'd by the first
/// post-recovery consolidation; the oldest surviving epoch at or after
/// it (that consolidating full, written on the final grid with exact
/// streams) then carries the same guarantee.
void expectMatchesFreshResume(ParallelEngine& engine, const std::string& dir) {
  ParallelWorld fresh(99);  // provides cet/model only; state comes from disk
  EamEnergyModel model(fresh.cet, fresh.net, fresh.eam);
  ParallelConfig cfg;
  cfg.tStop = 5e-8;
  cfg.rankGrid = engine.rankGrid();
  cfg.heartbeatTimeoutMs = 0.0;
  CheckpointStore store(dir);
  std::uint64_t resumeEpoch = engine.lastRecoveryEpoch();
  if (!store.chainValid(resumeEpoch)) {
    bool found = false;
    for (const std::uint64_t e : store.epochs())
      if (e >= resumeEpoch && store.chainValid(e)) {
        resumeEpoch = e;
        found = true;
        break;
      }
    ASSERT_TRUE(found) << "no resumable epoch at or after the recovery epoch";
  }
  ParallelEngine resumed(model, fresh.cet, cfg, store, resumeEpoch);
  while (resumed.cycles() < engine.cycles()) resumed.runCycle();
  EXPECT_EQ(resumed.totalEvents(), engine.totalEvents());
  EXPECT_EQ(resumed.discardedEvents(), engine.discardedEvents());
  EXPECT_DOUBLE_EQ(resumed.time(), engine.time());
  EXPECT_TRUE(resumed.assembleGlobalState() == engine.assembleGlobalState());
}

TEST(GrowRecovery, SpareRankKeepsTheGridAndStaysBitExact) {
  const std::string dir = tempDir("tkmc_grow_spare");
  ParallelWorld w(55), v(55);
  EamEnergyModel model(w.cet, w.net, w.eam), vm(v.cet, v.net, v.eam);
  ParallelConfig cfg = deltaConfig(65, dir);
  cfg.spareRanks = 1;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  {
    FaultInjector inj(18);
    inj.armSchedule("comm.rank_kill", {10});  // mid-fold, cycle 1
    FaultScope scope(inj);
    for (int c = 0; c < 5; ++c) engine.runCycle();
    EXPECT_EQ(inj.triggerCount("comm.rank_kill"), 1u);
  }
  const RecoveryStats stats = engine.recoveryStats();
  EXPECT_EQ(stats.rankFailures, 1u);
  EXPECT_EQ(stats.growRecoveries, 1u);
  EXPECT_EQ(engine.rankGrid(), (Vec3i{2, 2, 1}));  // grid held, not shrunk
  EXPECT_EQ(engine.spareRanksRemaining(), 0);
  EXPECT_EQ(engine.vacancyCount(), 6);
  EXPECT_TRUE(engine.ghostsConsistent());

  // Grow recovery restores the exact per-rank streams of the checkpoint
  // epoch, so the whole run is indistinguishable from one that never
  // lost a rank.
  ParallelConfig plain = deltaConfig(65, "");
  plain.checkpointDir.clear();
  plain.heartbeatTimeoutMs = 0.0;
  ParallelEngine untouched(v.state, vm, v.cet, plain);
  for (int c = 0; c < 5; ++c) untouched.runCycle();
  EXPECT_EQ(engine.totalEvents(), untouched.totalEvents());
  EXPECT_TRUE(engine.assembleGlobalState() == untouched.assembleGlobalState());
  expectMatchesFreshResume(engine, dir);
}

TEST(GrowRecovery, ExhaustedPoolFallsBackToShrink) {
  const std::string dir = tempDir("tkmc_grow_exhausted");
  ParallelWorld w(56);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = deltaConfig(66, dir);
  cfg.spareRanks = 1;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  {
    FaultInjector inj(19);
    inj.armSchedule("comm.rank_kill", {10, 60});
    FaultScope scope(inj);
    for (int c = 0; c < 5; ++c) engine.runCycle();
    EXPECT_EQ(inj.triggerCount("comm.rank_kill"), 2u);
  }
  const RecoveryStats stats = engine.recoveryStats();
  EXPECT_EQ(stats.rankFailures, 2u);
  EXPECT_EQ(stats.growRecoveries, 1u);  // first kill grew, second shrank
  EXPECT_EQ(engine.spareRanksRemaining(), 0);
  EXPECT_LT(engine.rankGrid().x * engine.rankGrid().y * engine.rankGrid().z, 4);
  EXPECT_EQ(engine.vacancyCount(), 6);
  EXPECT_TRUE(engine.ghostsConsistent());
  expectMatchesFreshResume(engine, dir);
}

TEST(GrowRecovery, DeltaAndGrowMetricsReachTheTelemetryRegistry) {
  telemetry::resetAll();
  telemetry::ScopedEnable enable;
  const std::string dir = tempDir("tkmc_grow_telemetry");
  ParallelWorld w(57);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = deltaConfig(67, dir);
  cfg.spareRanks = 1;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  FaultInjector inj(20);
  inj.armSchedule("comm.rank_kill", {10});
  FaultScope scope(inj);
  for (int c = 0; c < 3; ++c) engine.runCycle();
  ASSERT_EQ(engine.recoveryStats().growRecoveries, 1u);
  namespace tm = telemetry;
  EXPECT_EQ(tm::metrics().counter("recovery.grow_count").value(), 1u);
  EXPECT_GT(tm::metrics().histogram("checkpoint.delta_pages").count(), 0u);
  EXPECT_GE(tm::metrics().gauge("checkpoint.delta_ratio").value(), 0.0);
  EXPECT_LE(tm::metrics().gauge("checkpoint.delta_ratio").value(), 1.0);
  const std::string json = tm::metrics().toJson();
  EXPECT_NE(json.find("recovery.grow_count"), std::string::npos);
  EXPECT_NE(json.find("checkpoint.delta_pages"), std::string::npos);
  EXPECT_NE(json.find("checkpoint.delta_ratio"), std::string::npos);
  telemetry::resetAll();
}

// --- Chaos: delta chains + elastic recovery under seeded kills ---------

TEST(DeltaGrowChaos, TwentySeededKillsRecoverBitExactly) {
  // Twenty seeded schedules over the delta-checkpoint + spare-pool
  // stack: one random kill each, alternating between a run with a spare
  // (must grow: grid held) and one without (must shrink). Every run must
  // keep all committed epochs loadable and match a fresh resume from the
  // recovery epoch bit-exactly.
  for (std::uint64_t s = 0; s < 20; ++s) {
    SCOPED_TRACE("schedule " + std::to_string(s));
    const std::string dir = tempDir("tkmc_delta_chaos_" + std::to_string(s));
    ParallelWorld w(58);
    EamEnergyModel model(w.cet, w.net, w.eam);
    ParallelConfig cfg = deltaConfig(68, dir);
    cfg.maxDeltaChain = 4;
    cfg.spareRanks = static_cast<int>(s % 2);
    ParallelEngine engine(w.state, model, w.cet, cfg);
    Rng pick(2000 + s);
    const std::uint64_t ordinal = 1 + pick.uniformBelow(100);
    FaultInjector inj(s);
    inj.armSchedule("comm.rank_kill", {ordinal});
    FaultScope scope(inj);
    for (int c = 0; c < 5; ++c) engine.runCycle();
    ASSERT_EQ(inj.triggerCount("comm.rank_kill"), 1u);
    ASSERT_EQ(engine.recoveryStats().rankFailures, 1u);
    ASSERT_EQ(engine.vacancyCount(), 6);
    ASSERT_TRUE(engine.ghostsConsistent());
    const int volume =
        engine.rankGrid().x * engine.rankGrid().y * engine.rankGrid().z;
    if (cfg.spareRanks > 0) {
      ASSERT_EQ(engine.recoveryStats().growRecoveries, 1u);
      ASSERT_EQ(volume, 4);  // re-admitted: full grid retained
      ASSERT_EQ(engine.spareRanksRemaining(), 0);
    } else {
      ASSERT_EQ(engine.recoveryStats().growRecoveries, 0u);
      ASSERT_LT(volume, 4);  // no pool: deterministic shrink
    }
    CheckpointStore store(dir);
    for (const std::uint64_t epoch : store.epochs()) {
      ASSERT_NO_THROW({
        const EpochManifest manifest = store.loadManifest(epoch);
        const auto shards = store.loadShards(manifest);
        ASSERT_EQ(shards.size(), manifest.shards.size());
      }) << "committed epoch " << epoch
         << " references a missing or torn shard";
    }
    expectMatchesFreshResume(engine, dir);
  }
}

}  // namespace
}  // namespace tkmc
