// Robustness sweep over the checkpoint decoders: the serial v3 loader,
// full and delta shards, manifests and placement maps.
//
// Each intact artifact comes from a small fixed-seed run and is mutated
// three ways: cut at every byte, each byte flipped, and single body
// bytes replaced and the file re-sealed, so the parser runs past the CRC
// footer and meets the edit itself. Whatever the mutation, a decoder may
// only accept the file or throw IoError; a serial checkpoint that
// decodes may additionally fail restoreState() with InvariantError.
// Anything else escaping (std::invalid_argument, std::length_error,
// tkmc::Error from a lattice precondition, ...) is a decoder bug.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <typeinfo>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sealed_file.hpp"
#include "kmc/checkpoint.hpp"
#include "kmc/eam_energy_model.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/parallel_engine.hpp"
#include "parallel/remote_store.hpp"

namespace tkmc {
namespace {

namespace fs = std::filesystem;

constexpr double kCutoff = 4.0;

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

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

fs::path freshDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Decodes one candidate file; returns normally when it was accepted.
using Decoder = std::function<void(const std::string& contents)>;

/// Runs `decode` on `contents`, failing the test when anything but
/// IoError escapes. Returns true when the decoder accepted the file.
bool decodesOrThrowsIoError(const Decoder& decode, const std::string& contents,
                            const std::string& label) {
  try {
    decode(contents);
    return true;
  } catch (const IoError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": " << typeid(e).name() << ": " << e.what();
    return false;
  }
}

/// The three mutation families over one intact sealed artifact.
void sweep(const std::string& name, const std::string& intact,
           const Decoder& decode) {
  ASSERT_TRUE(decodesOrThrowsIoError(decode, intact, name + " intact"));

  for (std::size_t cut = 0; cut < intact.size(); ++cut)
    decodesOrThrowsIoError(decode, intact.substr(0, cut),
                           name + " cut at " + std::to_string(cut));

  for (std::size_t at = 0; at < intact.size(); ++at)
    for (const unsigned char mask : {0x01, 0x20, 0xff}) {
      std::string flipped = intact;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      decodesOrThrowsIoError(decode, flipped,
                             name + " byte " + std::to_string(at) + " ^ " +
                                 std::to_string(mask));
    }

  // Re-sealed edits: the characters that turn one field into another
  // (digits, signs, separators, hex letters, junk).
  const std::string body = unseal(intact, name).body;
  for (std::size_t at = 0; at < body.size(); ++at)
    for (const char c : {'0', '2', '3', '9', 'f', '-', ' ', '\n', 'x'}) {
      if (body[at] == c) continue;
      std::string edited = body;
      edited[at] = c;
      sealWithCrc(edited);
      decodesOrThrowsIoError(decode, edited,
                             name + " re-sealed byte " + std::to_string(at) +
                                 " = '" + c + "'");
    }
}

TEST(DecoderSweep, SerialV3Checkpoint) {
  World w(12, 3, 41);
  KmcConfig cfg;
  cfg.seed = 43;
  cfg.tEnd = 1e300;
  SerialEngine engine(w.state, w.model, w.cet, cfg);
  for (int i = 0; i < 25; ++i) engine.step();
  const fs::path dir = freshDir("tkmc_sweep_serial");
  const std::string path = (dir / "serial.chk").string();
  saveCheckpoint(path, w.state, engine);

  sweep("serial", slurp(path), [&](const std::string& contents) {
    spit(path, contents);
    const CheckpointData data = loadCheckpoint(path);
    try {
      (void)data.restoreState();
    } catch (const InvariantError&) {
      // Forged content that passed the format checks: a typed refusal.
    }
  });
  fs::remove_all(dir);
}

TEST(DecoderSweep, ShardsManifestsAndPlacementMaps) {
  const fs::path root = freshDir("tkmc_sweep_parallel");
  World w(16, 6, 51);
  ParallelConfig cfg;
  cfg.seed = 61;
  cfg.tStop = 5e-8;
  cfg.rankGrid = {2, 2, 1};
  cfg.checkpointDir = (root / "store").string();
  cfg.checkpointCadence = 1;
  cfg.checkpointMode = CheckpointMode::kDelta;
  cfg.remoteDir = (root / "mirror").string();
  {
    ParallelEngine engine(w.state, w.model, w.cet, cfg);
    engine.runCycle();
  }  // drains the streamer

  // Candidates are decoded from their own scratch store, whose epoch 9
  // directory holds the file under test.
  CheckpointStore scratch((root / "scratch").string());
  const fs::path epochDir = scratch.epochPath(9);
  fs::create_directories(epochDir);
  // The manifest entry pins each shard's size and CRC. Pin every
  // candidate to its own size and footer CRC, so cuts and flips meet the
  // footer check and re-sealed edits reach the shard parser itself.
  const auto decodeShard = [&](const std::string& contents) {
    spit(epochDir / "rank_0.tkc", contents);
    std::uint32_t crc = 0;
    try {
      crc = unseal(contents, "shard").crc;
    } catch (const IoError&) {
    }
    (void)scratch.loadShard(9, {"rank_0.tkc", crc, contents.size()});
  };

  const std::string fullShard =
      slurp(root / "store" / "epoch_0" / "rank_1.tkc");
  const std::string deltaShard =
      slurp(root / "store" / "epoch_1" / "rank_2.tkc");
  ASSERT_NE(deltaShard.find("\ndirtypages 1 1\n"), std::string::npos);
  sweep("full shard", fullShard, decodeShard);
  sweep("delta shard", deltaShard, decodeShard);

  // Manifests are renumbered to the scratch epoch and re-sealed, so
  // loadManifest's epoch check passes on the intact file.
  for (const char* epoch : {"epoch_0", "epoch_1"}) {
    std::string body = slurp(root / "store" / epoch / "manifest.tkm");
    body.resize(body.rfind("\ncrc32 ") + 1);
    const std::size_t at = body.find("\nepoch ") + 1;
    body.replace(at, body.find('\n', at) - at, "epoch 9");
    sealWithCrc(body);
    sweep(std::string("manifest ") + epoch, body,
          [&](const std::string& contents) {
            spit(epochDir / "manifest.tkm", contents);
            (void)scratch.loadManifest(9);
          });
  }

  sweep("placement map", slurp(root / "mirror" / "epoch_1" / kPlacementFile),
        [](const std::string& contents) {
          (void)parsePlacement(contents, "sweep");
        });
  fs::remove_all(root);
}

}  // namespace
}  // namespace tkmc
