#include "kmc/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <system_error>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/sealed_file.hpp"
#include "lattice/packed_hex.hpp"

namespace tkmc {
namespace {

std::string encodeBody(const LatticeState& state, const SerialEngine& engine) {
  const BccLattice& lat = state.lattice();
  const SerialEngine::Checkpoint cp = engine.checkpoint();
  std::string body;
  body.reserve(static_cast<std::size_t>(lat.siteCount()) / 2 +
               state.vacancies().size() * 12 + 256);
  char line[256];
  body += "tensorkmc-checkpoint 3\n";
  std::snprintf(line, sizeof(line), "%d %d %d %.17g\n", lat.cellsX(),
                lat.cellsY(), lat.cellsZ(), lat.latticeConstant());
  body += line;
  std::snprintf(line, sizeof(line), "%.17g %" PRIu64 "\n", cp.time, cp.steps);
  body += line;
  std::snprintf(line, sizeof(line),
                "%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                cp.rngState[0], cp.rngState[1], cp.rngState[2], cp.rngState[3]);
  body += line;
  std::snprintf(line, sizeof(line), "%zu\n", state.vacancies().size());
  body += line;
  for (const Vec3i& v : state.vacancies()) {
    std::snprintf(line, sizeof(line), "%d %d %d\n", v.x, v.y, v.z);
    body += line;
  }
  // Occupation in site-id order, streamed into the packed-hex form
  // without ever expanding to a dense array.
  PackedHexEncoder encoder(body);
  state.forEachSite([&](BccLattice::SiteId, Species s) {
    encoder.put(static_cast<std::uint8_t>(s));
  });
  encoder.finish();
  return body;
}

CheckpointData parseCheckpoint(const std::string& contents,
                               const std::string& path) {
  std::istringstream in(contents);
  std::string magic;
  int version = 0;
  bool ok = static_cast<bool>(in >> magic >> version) &&
            magic == "tensorkmc-checkpoint";
  if (!ok) throw IoError("not a tensorkmc checkpoint: " + path);
  if (version < 1 || version > 3)
    throw IoError("unsupported checkpoint version " +
                  std::to_string(version) + ": " + path);
  CheckpointData data;
  ok = static_cast<bool>(in >> data.cellsX >> data.cellsY >> data.cellsZ >>
                         data.latticeConstant) &&
       data.latticeConstant > 0.0;
  ok = ok && static_cast<bool>(in >> data.engine.time >> data.engine.steps);
  ok = ok && static_cast<bool>(
                 in >> data.engine.rngState[0] >> data.engine.rngState[1] >>
                 data.engine.rngState[2] >> data.engine.rngState[3]);
  std::size_t vacancyCount = 0;
  ok = ok && static_cast<bool>(in >> vacancyCount) &&
       vacancyCount < (1ULL << 32);
  for (std::size_t v = 0; ok && v < vacancyCount; ++v) {
    Vec3i p;
    ok = static_cast<bool>(in >> p.x >> p.y >> p.z);
    if (ok) data.vacancyOrder.push_back(p);
  }
  // The occupation readers below skip newlines, so no separator handling
  // is needed here. Box dimensions are bounded before any allocation is
  // sized from them: a corrupt header must degrade into IoError (which
  // the .bak fallback catches), never into std::length_error/bad_alloc.
  // The per-axis bound also keeps the site-count product comfortably
  // inside 64 bits.
  constexpr int kMaxCellsPerAxis = 1 << 20;  // far beyond any simulated box
  if (!ok || data.cellsX <= 0 || data.cellsY <= 0 || data.cellsZ <= 0 ||
      data.cellsX > kMaxCellsPerAxis || data.cellsY > kMaxCellsPerAxis ||
      data.cellsZ > kMaxCellsPerAxis)
    throw IoError("malformed checkpoint file: " + path);
  const std::size_t sites =
      2ULL * static_cast<std::size_t>(data.cellsX) * data.cellsY * data.cellsZ;
  if (version >= 3) {
    for (const std::uint8_t code : decodePackedHex(in, sites, path))
      data.species.push_back(static_cast<Species>(code));
    return data;
  }
  // v1/v2 occupation: one digit per site (0=Fe, 1=Cu, 2=vacancy), 80 per
  // line. Every site takes at least one byte of the file.
  data.species.reserve(std::min(sites, contents.size()));
  while (data.species.size() < sites) {
    const int c = in.get();
    if (c == '\n' || c == '\r') continue;
    if (c < '0' || c > '2')
      throw IoError("checkpoint occupation truncated or corrupt: decoded " +
                    std::to_string(data.species.size()) + " of " +
                    std::to_string(sites) + " sites: " + path);
    data.species.push_back(static_cast<Species>(c - '0'));
  }
  return data;
}

}  // namespace

LatticeState CheckpointData::restoreState() const {
  LatticeState state(BccLattice(cellsX, cellsY, cellsZ, latticeConstant));
  if (species.size() != static_cast<std::size_t>(state.lattice().siteCount()))
    throw InvariantError("checkpoint species array does not match the box");
  // Atoms first, then vacancies in their recorded list order (the engine
  // addresses vacancies by index).
  for (std::size_t id = 0; id < species.size(); ++id)
    if (species[id] != Species::kVacancy)
      state.setSpecies(static_cast<BccLattice::SiteId>(id), species[id]);
  const BccLattice& lat = state.lattice();
  for (const Vec3i& v : vacancyOrder) {
    if (!BccLattice::isLatticeSite(v) ||
        species[static_cast<std::size_t>(lat.siteId(v))] != Species::kVacancy)
      throw InvariantError(
          "checkpoint vacancy list disagrees with the occupation");
    state.setSpeciesAt(v, Species::kVacancy);
  }
  if (state.vacancies().size() != vacancyOrder.size())
    throw InvariantError("checkpoint vacancy count mismatch");
  return state;
}

void saveCheckpoint(const std::string& path, const LatticeState& state,
                    const SerialEngine& engine) {
  std::string body = encodeBody(state, engine);
  const std::size_t middle = body.size() / 2;
  sealWithCrc(body);
  // Injectable torn/bit-rotted write: flips a body byte after the CRC is
  // sealed, exercising the load-time detection and the .bak fallback.
  if (faultFires("checkpoint.corrupt_write")) body[middle] ^= 0x01;
  // Rotation happens only once the new file is complete in its temp
  // file, so a failed write never disturbs the current primary.
  publishAtomic(path, body, [&path] {
    std::error_code ec;
    if (std::filesystem::exists(path, ec))
      std::filesystem::rename(path, path + ".bak", ec);
    if (ec)
      throw IoError("cannot rotate checkpoint backup for " + path + ": " +
                    ec.message());
  });
}

CheckpointData loadCheckpoint(const std::string& path) {
  const std::string contents = readWholeFile(path);
  // Version 2 and later end with a "crc32 <hex>" footer sealing
  // everything before it; verify integrity before parsing.
  int version = 0;
  if (std::sscanf(contents.c_str(), "tensorkmc-checkpoint %d", &version) == 1 &&
      version >= 2)
    return parseCheckpoint(unseal(contents, path).body, path);
  return parseCheckpoint(contents, path);
}

CheckpointLoadResult loadCheckpointWithFallback(const std::string& path) {
  // Catch std::exception, not just tkmc::Error: a corrupt or truncated
  // body must never take the fallback down with it, whatever the parse
  // failure turned into (the reserve() guard above makes non-Error
  // escapes unlikely, this makes them impossible).
  std::string primaryError;
  try {
    return {loadCheckpoint(path), false};
  } catch (const std::exception& e) {
    primaryError = e.what();
  }
  const std::string bak = path + ".bak";
  try {
    return {loadCheckpoint(bak), true};
  } catch (const std::exception& e) {
    throw IoError("checkpoint unrecoverable: primary failed (" + primaryError +
                  "); backup failed (" + e.what() + ")");
  }
}

}  // namespace tkmc
