// Byte goldens for every on-disk checkpoint format.
//
// Each artifact is written by a small fixed-seed run and pinned by its
// exact size and CRC32. The values were recorded from the writers as
// they stood before the shared file codec (common/sealed_file) and the
// shared packed-hex codec (lattice/packed_hex) replaced their private
// copies, so any byte a refactor moves shows up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "kmc/checkpoint.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/parallel_engine.hpp"

namespace tkmc {
namespace {

namespace fs = std::filesystem;

constexpr double kCutoff = 4.0;

struct Golden {
  std::uint64_t bytes;
  std::uint32_t crc;
};

constexpr Golden kSerialV3{1946, 0xd3dcfe19u};
constexpr Golden kFullShard{1208, 0xea96d5d4u};
constexpr Golden kDeltaShard{1262, 0x09e88c06u};
constexpr Golden kFullManifest{249, 0x0406281bu};
constexpr Golden kDeltaManifest{283, 0xeae90c1bu};
constexpr Golden kTrapDetrapManifest{290, 0x0987b973u};
constexpr Golden kPlacementMap{250, 0x3c253daau};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void expectGolden(const std::string& path, const Golden& golden,
                  const char* header) {
  const std::string contents = slurp(path);
  ASSERT_FALSE(contents.empty()) << path;
  EXPECT_EQ(contents.rfind(header, 0), 0u) << path;
  EXPECT_EQ(contents.size(), golden.bytes) << path;
  EXPECT_EQ(crc32(contents.data(), contents.size()), golden.crc) << path;
}

struct World {
  World(int cells, int vacancies, std::uint64_t seed)
      : cet(2.87, kCutoff), net(cet), eam(kCutoff),
        lattice(cells, cells, cells, 2.87), state(lattice),
        model(cet, net, eam) {
    Rng rng(seed);
    state.randomAlloy(0.12, vacancies, rng);
  }

  Cet cet;
  Net net;
  EamPotential eam;
  BccLattice lattice;
  LatticeState state;
  EamEnergyModel model;
};

/// Runs each test inside a fresh scratch directory, so relative store
/// and mirror roots (which the placement map records verbatim) are the
/// same on every machine.
class CheckpointFormats : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    scratch_ = fs::temp_directory_path() /
               (std::string("tkmc_formats_") + info->name());
    fs::remove_all(scratch_);
    fs::create_directories(scratch_);
    previous_ = fs::current_path();
    fs::current_path(scratch_);
  }
  void TearDown() override {
    fs::current_path(previous_);
    fs::remove_all(scratch_);
  }

  fs::path scratch_;
  fs::path previous_;
};

TEST_F(CheckpointFormats, SerialV3Checkpoint) {
  World w(12, 3, 41);
  KmcConfig cfg;
  cfg.seed = 43;
  cfg.tEnd = 1e300;
  SerialEngine engine(w.state, w.model, w.cet, cfg);
  for (int i = 0; i < 25; ++i) engine.step();
  saveCheckpoint("serial.chk", w.state, engine);
  expectGolden("serial.chk", kSerialV3, "tensorkmc-checkpoint 3\n");
}

TEST_F(CheckpointFormats, ShardsManifestsAndPlacementMap) {
  World w(16, 6, 51);
  ParallelConfig cfg;
  cfg.seed = 61;
  cfg.tStop = 5e-8;
  cfg.rankGrid = {2, 2, 1};
  cfg.checkpointDir = "store";
  cfg.checkpointCadence = 1;
  cfg.checkpointMode = CheckpointMode::kDelta;
  cfg.remoteDir = "mirror";
  {
    ParallelEngine engine(w.state, w.model, w.cet, cfg);
    for (int c = 0; c < 2; ++c) engine.runCycle();
  }  // the destructor drains the streamer: the mirror is complete
  expectGolden("store/epoch_0/rank_1.tkc", kFullShard, "tensorkmc-shard 1\n");
  // Rank 2 is the rank whose octant moved a vacancy in cycle 0, so its
  // epoch-1 delta carries one packed dirty page.
  const std::string delta = "store/epoch_1/rank_2.tkc";
  EXPECT_NE(slurp(delta).find("\ndirtypages 1 1\npage 0 2048\n"),
            std::string::npos);
  expectGolden(delta, kDeltaShard, "tensorkmc-shard 2\n");
  expectGolden("store/epoch_0/manifest.tkm", kFullManifest,
               "tensorkmc-manifest 1\n");
  expectGolden("store/epoch_2/manifest.tkm", kDeltaManifest,
               "tensorkmc-manifest 2\n");
  expectGolden("mirror/epoch_2/placement.tkp", kPlacementMap,
               "tensorkmc-placement 3\n");
}

TEST_F(CheckpointFormats, TrapDetrapManifestCarriesItsCatalog) {
  World w(16, 6, 51);
  ParallelConfig cfg;
  cfg.seed = 61;
  cfg.tStop = 5e-8;
  cfg.rankGrid = {2, 2, 1};
  cfg.catalog.name = "trap_detrap";
  cfg.checkpointDir = "store";
  cfg.checkpointCadence = 1;
  ParallelEngine engine(w.state, w.model, w.cet, cfg);
  engine.runCycle();
  const std::string path = "store/epoch_1/manifest.tkm";
  EXPECT_NE(slurp(path).find("\ncatalog trap_detrap\n"), std::string::npos);
  expectGolden(path, kTrapDetrapManifest, "tensorkmc-manifest 1\n");
}

}  // namespace
}  // namespace tkmc
