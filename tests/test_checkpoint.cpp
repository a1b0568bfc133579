#include "kmc/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "kmc/eam_energy_model.hpp"

namespace tkmc {
namespace {

constexpr double kCutoff = 4.0;

std::string tempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Checked-in checkpoint written by an older build (tests/data).
std::string fixturePath(const char* name) {
  return std::string(TKMC_TEST_DATA_DIR) + "/" + name;
}

struct World {
  explicit World(std::uint64_t seed, int cellsX = 12, int cellsY = 12,
                 int cellsZ = 12)
      : cet(2.87, kCutoff), net(cet), eam(kCutoff),
        lattice(cellsX, cellsY, cellsZ, 2.87), state(lattice) {
    Rng rng(seed);
    state.randomAlloy(0.12, 3, rng);
  }

  Cet cet;
  Net net;
  EamPotential eam;
  BccLattice lattice;
  LatticeState state;
};

KmcConfig config(std::uint64_t seed) {
  KmcConfig cfg;
  cfg.seed = seed;
  cfg.tEnd = 1e300;
  return cfg;
}

TEST(Checkpoint, RoundTripPreservesEverything) {
  World w(1);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(5));
  for (int i = 0; i < 37; ++i) engine.step();

  const std::string path = tempPath("tkmc_checkpoint_roundtrip.chk");
  saveCheckpoint(path, w.state, engine);
  const CheckpointData data = loadCheckpoint(path);
  EXPECT_EQ(data.cellsX, 12);
  EXPECT_DOUBLE_EQ(data.latticeConstant, 2.87);
  EXPECT_DOUBLE_EQ(data.engine.time, engine.time());
  EXPECT_EQ(data.engine.steps, 37u);
  const LatticeState restored = data.restoreState();
  EXPECT_TRUE(restored == w.state);
  EXPECT_EQ(restored.contentHash(), w.state.contentHash());
  EXPECT_EQ(restored.vacancies(), w.state.vacancies());
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumedTrajectoryIsBitExact) {
  // Reference: one engine runs 60 steps straight through.
  World ref(2);
  EamEnergyModel refModel(ref.cet, ref.net, ref.eam);
  SerialEngine refEngine(ref.state, refModel, ref.cet, config(9));
  for (int i = 0; i < 30; ++i) refEngine.step();

  // Checkpoint at step 30 and keep going to 60.
  const std::string path = tempPath("tkmc_checkpoint_resume.chk");
  saveCheckpoint(path, ref.state, refEngine);
  std::vector<SerialEngine::StepResult> referenceTail;
  for (int i = 0; i < 30; ++i) referenceTail.push_back(refEngine.step());

  // Resume from the file in a fresh world and replay the tail.
  const CheckpointData data = loadCheckpoint(path);
  LatticeState resumedState = data.restoreState();
  World scratch(3);  // only provides tables/potential
  EamEnergyModel model(scratch.cet, scratch.net, scratch.eam);
  SerialEngine resumed(resumedState, model, scratch.cet, config(777));
  resumed.restore(data.engine);
  EXPECT_DOUBLE_EQ(resumed.time(), data.engine.time);
  for (int i = 0; i < 30; ++i) {
    const auto r = resumed.step();
    ASSERT_EQ(r.from, referenceTail[static_cast<std::size_t>(i)].from)
        << "step " << i;
    ASSERT_EQ(r.to, referenceTail[static_cast<std::size_t>(i)].to);
    ASSERT_EQ(r.dt, referenceTail[static_cast<std::size_t>(i)].dt);
  }
  EXPECT_TRUE(resumedState == ref.state);
  EXPECT_DOUBLE_EQ(resumed.time(), refEngine.time());
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumeWithoutCacheAlsoBitExact) {
  World ref(4);
  EamEnergyModel refModel(ref.cet, ref.net, ref.eam);
  KmcConfig noCache = config(11);
  noCache.useVacancyCache = false;
  SerialEngine refEngine(ref.state, refModel, ref.cet, noCache);
  for (int i = 0; i < 20; ++i) refEngine.step();
  const std::string path = tempPath("tkmc_checkpoint_nocache.chk");
  saveCheckpoint(path, ref.state, refEngine);
  const auto tail = refEngine.step();

  const CheckpointData data = loadCheckpoint(path);
  LatticeState resumedState = data.restoreState();
  World scratch(5);
  EamEnergyModel model(scratch.cet, scratch.net, scratch.eam);
  SerialEngine resumed(resumedState, model, scratch.cet, noCache);
  resumed.restore(data.engine);
  const auto r = resumed.step();
  EXPECT_EQ(r.from, tail.from);
  EXPECT_EQ(r.to, tail.to);
  EXPECT_EQ(r.dt, tail.dt);
  std::remove(path.c_str());
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
}

void cleanupReplicas(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(loadCheckpoint("/no/such/file.chk"), IoError);
}

TEST(Checkpoint, WritesV3PackedWithCrcFooterAndNoTempResidue) {
  World w(7);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(15));
  const std::string path = tempPath("tkmc_checkpoint_v3.chk");
  cleanupReplicas(path);
  saveCheckpoint(path, w.state, engine);
  const std::string contents = readFile(path);
  EXPECT_EQ(contents.rfind("tensorkmc-checkpoint 3\n", 0), 0u);
  EXPECT_NE(contents.rfind("\ncrc32 "), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const CheckpointData data = loadCheckpoint(path);
  EXPECT_TRUE(data.restoreState() == w.state);
  cleanupReplicas(path);
}

TEST(Checkpoint, V3PackedBodyIsHalfTheDenseBody) {
  // The packed occupation (4 sites/byte, hex-encoded: 2 chars per byte)
  // must come in at half the one-digit-per-site body of a v2 file of the
  // same 12^3 box and vacancy count.
  World w(14);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(29));
  const std::string v3 = tempPath("tkmc_checkpoint_size_v3.chk");
  cleanupReplicas(v3);
  saveCheckpoint(v3, w.state, engine);
  EXPECT_LT(std::filesystem::file_size(v3),
            std::filesystem::file_size(fixturePath("checkpoint_v2.chk")) * 6 /
                10);
  cleanupReplicas(v3);
}

TEST(Checkpoint, V2FilesStillLoadBitExactThroughFallbackPath) {
  // A v2 file (dense digit body + CRC footer) written by an older build
  // from this world after 11 steps must load bit-exactly through
  // loadCheckpointWithFallback.
  World w(15);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(33));
  for (int i = 0; i < 11; ++i) engine.step();
  const std::string path = fixturePath("checkpoint_v2.chk");
  const std::string contents = readFile(path);
  EXPECT_EQ(contents.rfind("tensorkmc-checkpoint 2\n", 0), 0u);
  EXPECT_NE(contents.rfind("\ncrc32 "), std::string::npos);
  const CheckpointLoadResult result = loadCheckpointWithFallback(path);
  EXPECT_FALSE(result.usedBackup);
  EXPECT_EQ(result.data.engine.steps, 11u);
  const LatticeState restored = result.data.restoreState();
  EXPECT_TRUE(restored == w.state);
  EXPECT_EQ(restored.contentHash(), w.state.contentHash());
  EXPECT_EQ(restored.vacancies(), w.state.vacancies());
}

TEST(Checkpoint, PackedBodyWhoseLastByteIsPartialAndEndsALineRoundTrips) {
  // 9 x 9 x 79 cells = 12,798 sites: 3,200 packed bytes, the last one
  // partial, filling exactly 80 lines. The final line still needs its
  // newline, or the footer would run onto the hex digits.
  World w(18, 9, 9, 79);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(39));
  const std::string path = tempPath("tkmc_checkpoint_partial_line.chk");
  cleanupReplicas(path);
  saveCheckpoint(path, w.state, engine);
  const CheckpointData data = loadCheckpoint(path);
  EXPECT_TRUE(data.restoreState() == w.state);
  cleanupReplicas(path);
}

TEST(Checkpoint, BitFlippedBodyFailsCrc) {
  World w(8);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(17));
  const std::string path = tempPath("tkmc_checkpoint_bitflip.chk");
  cleanupReplicas(path);
  saveCheckpoint(path, w.state, engine);
  std::string contents = readFile(path);
  contents[contents.size() / 2] ^= 0x01;  // single bit flip in the body
  writeFile(path, contents);
  EXPECT_THROW(loadCheckpoint(path), IoError);
  cleanupReplicas(path);
}

TEST(Checkpoint, WrongMagicAndVersionAreTypedErrors) {
  const std::string path = tempPath("tkmc_checkpoint_magic.chk");
  writeFile(path, "not-a-checkpoint 7\n");
  EXPECT_THROW(loadCheckpoint(path), IoError);
  writeFile(path, "tensorkmc-checkpoint 9\n1 1 1 2.87\n");
  EXPECT_THROW(loadCheckpoint(path), IoError);
  cleanupReplicas(path);
}

TEST(Checkpoint, VacancyListDisagreeingWithOccupationIsInvariantError) {
  World w(9);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(19));
  const std::string path = tempPath("tkmc_checkpoint_vacdisagree.chk");
  cleanupReplicas(path);
  saveCheckpoint(path, w.state, engine);
  CheckpointData data = loadCheckpoint(path);
  // Point the first vacancy at a site the occupation says is an atom.
  const BccLattice lat(data.cellsX, data.cellsY, data.cellsZ,
                       data.latticeConstant);
  Vec3i forged{0, 0, 0};
  bool found = false;
  for (int x = 0; x < 8 && !found; x += 2)
    for (int y = 0; y < 8 && !found; y += 2) {
      const Vec3i p{x, y, 0};
      if (data.species[static_cast<std::size_t>(lat.siteId(p))] !=
          Species::kVacancy) {
        forged = p;
        found = true;
      }
    }
  ASSERT_TRUE(found);
  data.vacancyOrder[0] = forged;
  EXPECT_THROW(data.restoreState(), InvariantError);
  cleanupReplicas(path);
}

TEST(Checkpoint, SecondSaveRotatesBackupAndFallbackRecovers) {
  World w(10);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(21));
  const std::string path = tempPath("tkmc_checkpoint_rotate.chk");
  cleanupReplicas(path);
  saveCheckpoint(path, w.state, engine);        // good primary
  engine.step();
  saveCheckpoint(path, w.state, engine);        // rotates good -> .bak
  ASSERT_TRUE(std::filesystem::exists(path + ".bak"));

  // Corrupt the primary; fallback must degrade to the backup.
  std::string contents = readFile(path);
  contents[contents.size() / 3] ^= 0x04;
  writeFile(path, contents);
  EXPECT_THROW(loadCheckpoint(path), IoError);
  const CheckpointLoadResult result = loadCheckpointWithFallback(path);
  EXPECT_TRUE(result.usedBackup);
  EXPECT_EQ(result.data.engine.steps, 0u);  // the pre-step snapshot
  cleanupReplicas(path);
}

TEST(Checkpoint, FallbackPrefersHealthyPrimary) {
  World w(11);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(23));
  const std::string path = tempPath("tkmc_checkpoint_primary.chk");
  cleanupReplicas(path);
  saveCheckpoint(path, w.state, engine);
  const CheckpointLoadResult result = loadCheckpointWithFallback(path);
  EXPECT_FALSE(result.usedBackup);
  cleanupReplicas(path);
}

TEST(Checkpoint, BothReplicasCorruptIsUnrecoverable) {
  const std::string path = tempPath("tkmc_checkpoint_unrecoverable.chk");
  writeFile(path, "garbage");
  writeFile(path + ".bak", "more garbage");
  EXPECT_THROW(loadCheckpointWithFallback(path), IoError);
  cleanupReplicas(path);
}

TEST(Checkpoint, InjectedCorruptWriteIsCaughtAndBackupServes) {
  World w(12);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(25));
  for (int i = 0; i < 5; ++i) engine.step();
  const std::string path = tempPath("tkmc_checkpoint_injected.chk");
  cleanupReplicas(path);
  saveCheckpoint(path, w.state, engine);  // good replica

  FaultInjector inj(31);
  inj.armOnce("checkpoint.corrupt_write");
  FaultScope scope(inj);
  engine.step();
  saveCheckpoint(path, w.state, engine);  // corrupted on the way out
  EXPECT_EQ(inj.fireCount("checkpoint.corrupt_write"), 1u);
  EXPECT_THROW(loadCheckpoint(path), IoError);

  const CheckpointLoadResult result = loadCheckpointWithFallback(path);
  EXPECT_TRUE(result.usedBackup);
  EXPECT_EQ(result.data.engine.steps, 5u);
  // Round trip continues from the recovered replica.
  const LatticeState restored = result.data.restoreState();
  EXPECT_EQ(restored.vacancies().size(), 3u);
  cleanupReplicas(path);
}

TEST(Checkpoint, V1FilesStillLoadReadOnly) {
  // A v1 file (dense digit body, no footer) written by an older build
  // from this world after 3 steps.
  World w(13);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(27));
  for (int i = 0; i < 3; ++i) engine.step();
  const std::string path = fixturePath("checkpoint_v1.chk");
  const std::string contents = readFile(path);
  EXPECT_EQ(contents.rfind("tensorkmc-checkpoint 1\n", 0), 0u);
  EXPECT_EQ(contents.rfind("\ncrc32 "), std::string::npos);
  const CheckpointData data = loadCheckpoint(path);
  EXPECT_EQ(data.engine.steps, 3u);
  EXPECT_TRUE(data.restoreState() == w.state);
  // The same v1 file must also serve through the fallback-aware loader.
  const CheckpointLoadResult viaFallback = loadCheckpointWithFallback(path);
  EXPECT_FALSE(viaFallback.usedBackup);
  EXPECT_TRUE(viaFallback.data.restoreState() == w.state);
  EXPECT_EQ(viaFallback.data.restoreState().contentHash(),
            w.state.contentHash());
}

TEST(Checkpoint, CorruptFileThrows) {
  const std::string path = tempPath("tkmc_checkpoint_corrupt.chk");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not-a-checkpoint 7\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(loadCheckpoint(path), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedOccupationThrows) {
  World w(6);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(13));
  const std::string path = tempPath("tkmc_checkpoint_trunc.chk");
  saveCheckpoint(path, w.state, engine);
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 200);
  EXPECT_THROW(loadCheckpoint(path), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncationAtAnyOffsetFallsBackToBackup) {
  // A v3 file torn mid packed-hex line (not just at a line boundary)
  // must degrade to the .bak replica through the fallback loader, never
  // escape as an untyped error, and never serve partial state.
  World w(16);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(35));
  for (int i = 0; i < 4; ++i) engine.step();
  const std::string path = tempPath("tkmc_checkpoint_trunc_fallback.chk");
  cleanupReplicas(path);
  saveCheckpoint(path, w.state, engine);  // becomes .bak on the next save
  engine.step();
  saveCheckpoint(path, w.state, engine);
  ASSERT_TRUE(std::filesystem::exists(path + ".bak"));
  const std::string intact = readFile(path);
  const std::size_t size = intact.size();
  // Offsets chosen to land mid-footer, mid-hex-line, mid-body, and just
  // past the header.
  const std::size_t cuts[] = {size - 3, size - 47, size - 200, size / 2 + 7,
                              size / 4, 40};
  for (const std::size_t cut : cuts) {
    writeFile(path, intact.substr(0, cut));
    EXPECT_THROW(loadCheckpoint(path), IoError) << "cut at " << cut;
    CheckpointLoadResult result;
    ASSERT_NO_THROW(result = loadCheckpointWithFallback(path))
        << "cut at " << cut;
    EXPECT_TRUE(result.usedBackup) << "cut at " << cut;
    EXPECT_EQ(result.data.engine.steps, 4u) << "cut at " << cut;
  }
  cleanupReplicas(path);
}

TEST(Checkpoint, AbsurdHeaderGeometryIsATypedErrorAndFallsBack) {
  // A header claiming a preposterous box must surface as IoError (not a
  // bad_alloc / length_error from trying to allocate it) and must not
  // block fallback to a healthy backup.
  const std::string path = tempPath("tkmc_checkpoint_hugehdr.chk");
  cleanupReplicas(path);
  writeFile(path,
            "tensorkmc-checkpoint 1\n99999999 99999999 99999999 2.87\n"
            "0.0 0\n1 2 3 4\n0\n");
  EXPECT_THROW(loadCheckpoint(path), IoError);
  EXPECT_THROW(loadCheckpointWithFallback(path), IoError);  // no backup

  World w(17);
  EamEnergyModel model(w.cet, w.net, w.eam);
  SerialEngine engine(w.state, model, w.cet, config(37));
  for (int i = 0; i < 2; ++i) engine.step();
  saveCheckpoint(path + ".bak", w.state, engine);  // healthy backup appears
  const CheckpointLoadResult result = loadCheckpointWithFallback(path);
  EXPECT_TRUE(result.usedBackup);
  EXPECT_EQ(result.data.engine.steps, 2u);
  EXPECT_TRUE(result.data.restoreState() == w.state);
  cleanupReplicas(path);
}

}  // namespace
}  // namespace tkmc
