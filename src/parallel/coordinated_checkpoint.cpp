#include "parallel/coordinated_checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include <algorithm>
#include <map>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/sealed_file.hpp"
#include "common/telemetry/telemetry.hpp"
#include "lattice/packed_hex.hpp"
#include "lattice/species_store.hpp"
#include "parallel/remote_store.hpp"

namespace tkmc {
namespace {

namespace fs = std::filesystem;

constexpr const char* kManifestName = "manifest.tkm";

void expectKeyword(std::istream& in, const char* word,
                   const std::string& path) {
  std::string got;
  if (!(in >> got) || got != word)
    throw IoError("malformed checkpoint file (expected '" +
                  std::string(word) + "', got '" + got + "'): " + path);
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  require(!dir_.empty(), "checkpoint store needs a directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec)
    throw IoError("cannot create checkpoint directory " + dir_ + ": " +
                  ec.message());
}

std::string CheckpointStore::stagePath(std::uint64_t epoch) const {
  return dir_ + "/epoch_" + std::to_string(epoch) + ".tmp";
}

std::string CheckpointStore::epochPath(std::uint64_t epoch) const {
  return dir_ + "/epoch_" + std::to_string(epoch);
}

void CheckpointStore::beginEpoch(std::uint64_t epoch) {
  const std::string stage = stagePath(epoch);
  std::error_code ec;
  fs::remove_all(stage, ec);  // leftover from an aborted attempt
  fs::create_directories(stage, ec);
  if (ec)
    throw IoError("cannot create staging directory " + stage + ": " +
                  ec.message());
}

EpochManifest::ShardEntry CheckpointStore::stageShard(
    std::uint64_t epoch, const ShardRecord& shard) {
  if (!shard.delta)
    require(shard.species.size() == shard.siteCount(),
            "shard species run does not match its extent");
  std::string body;
  body.reserve(shard.species.size() / 2 + shard.vacancyOrder.size() * 16 + 256);
  char line[192];
  body += shard.delta ? "tensorkmc-shard 2\n" : "tensorkmc-shard 1\n";
  std::snprintf(line, sizeof(line), "rank %d\n", shard.rank);
  body += line;
  std::snprintf(line, sizeof(line), "box %d %d %d %d %d %d\n",
                shard.originCells.x, shard.originCells.y, shard.originCells.z,
                shard.extentCells.x, shard.extentCells.y, shard.extentCells.z);
  body += line;
  std::snprintf(line, sizeof(line),
                "rng %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                shard.rngState[0], shard.rngState[1], shard.rngState[2],
                shard.rngState[3]);
  body += line;
  std::snprintf(line, sizeof(line), "vacancies %zu\n",
                shard.vacancyOrder.size());
  body += line;
  for (const Vec3i& v : shard.vacancyOrder) {
    std::snprintf(line, sizeof(line), "%d %d %d\n", v.x, v.y, v.z);
    body += line;
  }
  if (shard.delta) {
    const std::size_t pageSites =
        static_cast<std::size_t>(SpeciesStore::kPageSites);
    const std::size_t totalPages =
        (shard.siteCount() + pageSites - 1) / pageSites;
    std::snprintf(line, sizeof(line), "base %" PRIu64 "\n", shard.baseEpoch);
    body += line;
    std::snprintf(line, sizeof(line), "pagesites %zu\n", pageSites);
    body += line;
    std::snprintf(line, sizeof(line), "dirtypages %zu %zu\n",
                  shard.dirtyPages.size(), totalPages);
    body += line;
    for (const ShardRecord::DirtyPage& page : shard.dirtyPages) {
      std::snprintf(line, sizeof(line), "page %u %zu\n", page.index,
                    page.species.size());
      body += line;
      appendPackedHex(body, page.species);
    }
  } else {
    std::snprintf(line, sizeof(line), "occupation %zu\n", shard.species.size());
    body += line;
    appendPackedHex(body, shard.species);
  }

  EpochManifest::ShardEntry entry;
  entry.file = "rank_" + std::to_string(shard.rank) + ".tkc";
  entry.crc = sealWithCrc(body);
  entry.bytes = body.size();
  // Chaos drill: a shard write whose bits rot between staging and read
  // back. The manifest entry keeps the intended CRC, so validation
  // disqualifies the epoch instead of feeding the engine bad state.
  if (faultFires("checkpoint.shard_corrupt_write"))
    body[body.size() / 2] ^= 0x20;
  publishAtomic(stagePath(epoch) + "/" + entry.file, body);
  if (telemetry::enabled())
    telemetry::metrics()
        .histogram("checkpoint.shard_bytes")
        .observe(static_cast<double>(entry.bytes));
  return entry;
}

void CheckpointStore::setMaxDeltaChain(int depth) {
  require(depth >= 1, "max delta chain depth must be at least 1");
  maxDeltaChain_ = depth;
}

std::uint32_t CheckpointStore::commitEpoch(const EpochManifest& manifest) {
  std::string body;
  char line[192];
  // Full manifests keep the version-1 format byte for byte; only delta
  // manifests (which old readers could not resolve anyway) use v2.
  body += manifest.isDelta() ? "tensorkmc-manifest 2\n"
                             : "tensorkmc-manifest 1\n";
  std::snprintf(line, sizeof(line), "epoch %" PRIu64 "\n", manifest.epoch);
  body += line;
  if (manifest.isDelta()) {
    std::snprintf(line, sizeof(line), "base %" PRIu64 " %08x\n",
                  *manifest.baseEpoch, manifest.baseCrc);
    body += line;
  }
  std::snprintf(line, sizeof(line), "grid %d %d %d\n", manifest.rankGrid.x,
                manifest.rankGrid.y, manifest.rankGrid.z);
  body += line;
  std::snprintf(line, sizeof(line), "cells %d %d %d %.17g\n",
                manifest.globalCells.x, manifest.globalCells.y,
                manifest.globalCells.z, manifest.latticeConstant);
  body += line;
  std::snprintf(line, sizeof(line),
                "clock %.17g %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
                manifest.time, manifest.cycles, manifest.events,
                manifest.discarded);
  body += line;
  std::snprintf(line, sizeof(line), "tstop %.17g\n", manifest.tStop);
  body += line;
  std::snprintf(line, sizeof(line), "seed %" PRIu64 "\n", manifest.seed);
  body += line;
  // The default catalog is omitted so vacancy_hop manifests stay byte
  // identical to the pre-catalog format (and old readers still parse
  // them); any other catalog is recorded for resume validation.
  if (manifest.catalog != "vacancy_hop") {
    std::snprintf(line, sizeof(line), "catalog %s\n",
                  manifest.catalog.c_str());
    body += line;
  }
  std::snprintf(line, sizeof(line), "shards %zu\n", manifest.shards.size());
  body += line;
  for (const EpochManifest::ShardEntry& s : manifest.shards) {
    std::snprintf(line, sizeof(line), "%s %08x %" PRIu64 "\n", s.file.c_str(),
                  s.crc, s.bytes);
    body += line;
  }
  const std::uint32_t bodyCrc = sealWithCrc(body);
  const std::string stage = stagePath(manifest.epoch);
  publishAtomic(stage + "/" + kManifestName, body);

  // The atomic commit point: readers only ever see `epoch_<N>/` with the
  // manifest and every shard already in place.
  const std::string target = epochPath(manifest.epoch);
  std::error_code ec;
  fs::remove_all(target, ec);  // replayed cycle recommits the same epoch
  fs::rename(stage, target, ec);
  if (ec)
    throw IoError("cannot commit checkpoint epoch at " + target + ": " +
                  ec.message());
  return bodyCrc;
}

void CheckpointStore::abortEpoch(std::uint64_t epoch) {
  std::error_code ec;
  fs::remove_all(stagePath(epoch), ec);
}

std::vector<std::uint64_t> CheckpointStore::epochs() const {
  std::vector<std::uint64_t> found;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_directory()) continue;
    const std::string name = it->path().filename().string();
    std::uint64_t epoch = 0;
    char trailing = 0;
    if (std::sscanf(name.c_str(), "epoch_%" SCNu64 "%c", &epoch, &trailing) ==
        1)
      found.push_back(epoch);
  }
  std::sort(found.begin(), found.end());
  return found;
}

bool CheckpointStore::epochCompleteLocal(std::uint64_t epoch) const {
  try {
    const EpochManifest manifest = loadManifestLocal(epoch);
    for (const EpochManifest::ShardEntry& entry : manifest.shards)
      (void)loadShard(epoch, entry);
    return !manifest.shards.empty();
  } catch (const std::exception&) {
    return false;
  }
}

bool CheckpointStore::epochComplete(std::uint64_t epoch) const {
  if (epochCompleteLocal(epoch)) return true;
  // A locally torn or missing epoch — a shard that died with its node —
  // gets one shot at a verified remote heal before being judged.
  return tryHealFromRemote(epoch) && epochCompleteLocal(epoch);
}

void CheckpointStore::attachRemote(std::shared_ptr<RemoteShardStore> remote) {
  remote_ = std::move(remote);
}

std::vector<std::uint64_t> CheckpointStore::candidateEpochs() const {
  std::vector<std::uint64_t> all = epochs();
  const std::size_t local = all.size();
  if (remote_) {
    try {
      for (const std::string& name : remote_->listEpochs()) {
        std::uint64_t epoch = 0;
        char trailing = 0;
        if (std::sscanf(name.c_str(), "epoch_%" SCNu64 "%c", &epoch,
                        &trailing) == 1)
          all.push_back(epoch);
      }
    } catch (const std::exception&) {
      all.resize(local);  // an unreachable remote degrades to local-only
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

bool CheckpointStore::tryHealFromRemote(std::uint64_t epoch) const {
  if (!remote_) return false;
  const std::string epochDir = "epoch_" + std::to_string(epoch);
  try {
    // The placement map is the remote commit marker: absent or torn
    // means the copy is half streamed and must not be trusted.
    const PlacementMap placement = parsePlacement(
        remote_->get(epochDir, kPlacementFile), remote_->describe() + "/" +
                                                    epochDir);
    if (placement.epoch != epoch || placement.rows.empty()) return false;
    // Fetch every file and verify it against its placement pin before
    // touching the local tree — a torn object refuses the whole heal,
    // and recovery falls back to an older epoch.
    std::vector<std::pair<std::string, std::string>> files;
    for (const PlacementMap::Row& row : placement.rows) {
      std::string contents = remote_->get(epochDir, row.file);
      if (contents.size() != row.bytes ||
          crc32(contents.data(), contents.size()) != row.crc)
        return false;
      files.emplace_back(row.file, std::move(contents));
    }
    // Stage, then swap over the broken local directory in one rename —
    // the same crash discipline as commitEpoch.
    const std::string stage = epochPath(epoch) + ".heal.tmp";
    std::error_code ec;
    fs::remove_all(stage, ec);
    fs::create_directories(stage, ec);
    if (ec) return false;
    for (const auto& [name, contents] : files)
      publishAtomic(stage + "/" + name, contents);
    fs::remove_all(epochPath(epoch), ec);
    fs::rename(stage, epochPath(epoch), ec);
    if (ec) return false;
    remoteHeals_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry::enabled()) {
      telemetry::metrics().counter("remote.heals").add(1);
      telemetry::metrics()
          .counter("remote.fetches")
          .add(static_cast<std::uint64_t>(files.size()));
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Chain length of `epoch` in delta links (0 for a full epoch), or -1
/// when any link of the chain fails validation: a link missing or
/// locally torn, a base that does not precede its child, a base manifest
/// whose sealed CRC disagrees with the child's recorded pin, a
/// grid/cells change mid-chain, or depth beyond maxDeltaChain().
int CheckpointStore::chainDepthOrNegative(std::uint64_t epoch) const {
  int depth = 0;
  std::uint64_t cur = epoch;
  for (;;) {
    if (!epochComplete(cur)) return -1;
    EpochManifest m;
    try {
      m = loadManifest(cur);
    } catch (const std::exception&) {
      return -1;
    }
    if (!m.isDelta()) return depth;
    if (++depth > maxDeltaChain_) return -1;
    if (*m.baseEpoch >= cur) return -1;  // chains link strictly backwards
    EpochManifest base;
    try {
      base = loadManifest(*m.baseEpoch);
    } catch (const std::exception&) {
      return -1;
    }
    // The pin: the base manifest on disk must be the exact one this
    // delta was diffed against — a recommitted or substituted base has a
    // different sealed CRC and breaks the chain here.
    if (base.selfCrc != m.baseCrc) return -1;
    if (!(base.rankGrid == m.rankGrid) || !(base.globalCells == m.globalCells))
      return -1;
    cur = *m.baseEpoch;
  }
}

bool CheckpointStore::chainValid(std::uint64_t epoch) const {
  return chainDepthOrNegative(epoch) >= 0;
}

std::optional<std::uint64_t> CheckpointStore::newestCompleteEpoch() const {
  const std::vector<std::uint64_t> all = candidateEpochs();
  for (auto it = all.rbegin(); it != all.rend(); ++it)
    if (chainValid(*it)) return *it;
  return std::nullopt;
}

CheckpointStore::ResolvedEpoch CheckpointStore::loadNewestResolvable() const {
  const std::vector<std::uint64_t> all = candidateEpochs();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (!chainValid(*it)) continue;
    try {
      ResolvedEpoch out;
      out.epoch = *it;
      out.manifest = loadManifest(*it);
      out.shards = resolveShards(*it);
      return out;
    } catch (const IoError&) {
      // Yanked between validation and load (base GC'd mid-recovery, a
      // remote copy torn under us) — fall back to the next older epoch.
      continue;
    }
  }
  throw IoError("no checkpoint epoch resolves end to end: " + dir_);
}

EpochManifest CheckpointStore::loadManifest(std::uint64_t epoch) const {
  try {
    return loadManifestLocal(epoch);
  } catch (const IoError&) {
    if (!tryHealFromRemote(epoch)) throw;
    return loadManifestLocal(epoch);
  }
}

EpochManifest CheckpointStore::loadManifestLocal(std::uint64_t epoch) const {
  const std::string path = epochPath(epoch) + "/" + kManifestName;
  const Unsealed sealed = unseal(readWholeFile(path), path);
  std::istringstream in(sealed.body);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "tensorkmc-manifest")
    throw IoError("not a tensorkmc manifest: " + path);
  if (version != 1 && version != 2)
    throw IoError("unsupported manifest version " + std::to_string(version) +
                  ": " + path);
  EpochManifest m;
  m.selfCrc = sealed.crc;
  expectKeyword(in, "epoch", path);
  bool ok = static_cast<bool>(in >> m.epoch);
  if (version == 2) {
    expectKeyword(in, "base", path);
    std::uint64_t base = 0;
    std::string crcField;
    ok = ok && static_cast<bool>(in >> base >> crcField);
    if (ok) {
      m.baseEpoch = base;
      m.baseCrc = parseCrcField(crcField, path);
    }
  }
  expectKeyword(in, "grid", path);
  ok = ok && static_cast<bool>(in >> m.rankGrid.x >> m.rankGrid.y >>
                               m.rankGrid.z);
  expectKeyword(in, "cells", path);
  ok = ok && static_cast<bool>(in >> m.globalCells.x >> m.globalCells.y >>
                               m.globalCells.z >> m.latticeConstant);
  expectKeyword(in, "clock", path);
  ok = ok &&
       static_cast<bool>(in >> m.time >> m.cycles >> m.events >> m.discarded);
  expectKeyword(in, "tstop", path);
  ok = ok && static_cast<bool>(in >> m.tStop);
  expectKeyword(in, "seed", path);
  ok = ok && static_cast<bool>(in >> m.seed);
  // Optional catalog record (absent = the default vacancy_hop, keeping
  // pre-catalog manifests loadable).
  std::string keyword;
  ok = ok && static_cast<bool>(in >> keyword);
  if (ok && keyword == "catalog") {
    ok = static_cast<bool>(in >> m.catalog) && !m.catalog.empty();
    ok = ok && static_cast<bool>(in >> keyword);
  }
  if (!ok || keyword != "shards")
    throw IoError("malformed checkpoint file (expected 'shards', got '" +
                  keyword + "'): " + path);
  std::size_t shardCount = 0;
  ok = ok && static_cast<bool>(in >> shardCount) && shardCount < (1ULL << 20);
  for (std::size_t i = 0; ok && i < shardCount; ++i) {
    EpochManifest::ShardEntry entry;
    std::string crcField;
    ok = static_cast<bool>(in >> entry.file >> crcField >> entry.bytes);
    if (ok) {
      entry.crc = parseCrcField(crcField, path);
      // Shard names are store-generated; reject anything that could
      // escape the epoch directory.
      ok = entry.file.find('/') == std::string::npos &&
           entry.file.find("..") == std::string::npos;
    }
    if (ok) m.shards.push_back(std::move(entry));
  }
  if (!ok || m.epoch != epoch)
    throw IoError("malformed manifest: " + path);
  return m;
}

ShardRecord CheckpointStore::loadShard(
    std::uint64_t epoch, const EpochManifest::ShardEntry& entry) const {
  const std::string path = epochPath(epoch) + "/" + entry.file;
  const std::string contents = readWholeFile(path);
  if (entry.bytes != contents.size())
    throw IoError("shard size mismatch (manifest says " +
                  std::to_string(entry.bytes) + ", file has " +
                  std::to_string(contents.size()) + "): " + path);
  const Unsealed sealed = unseal(contents, path);
  if (sealed.crc != entry.crc)
    throw IoError("shard CRC disagrees with the manifest: " + path);
  std::istringstream in(sealed.body);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != "tensorkmc-shard")
    throw IoError("not a tensorkmc shard: " + path);
  if (version != 1 && version != 2)
    throw IoError("unsupported shard version " + std::to_string(version) +
                  ": " + path);
  ShardRecord shard;
  shard.delta = version == 2;
  expectKeyword(in, "rank", path);
  bool ok = static_cast<bool>(in >> shard.rank);
  expectKeyword(in, "box", path);
  ok = ok && static_cast<bool>(
                 in >> shard.originCells.x >> shard.originCells.y >>
                 shard.originCells.z >> shard.extentCells.x >>
                 shard.extentCells.y >> shard.extentCells.z);
  expectKeyword(in, "rng", path);
  ok = ok && static_cast<bool>(in >> shard.rngState[0] >> shard.rngState[1] >>
                               shard.rngState[2] >> shard.rngState[3]);
  expectKeyword(in, "vacancies", path);
  std::size_t vacancyCount = 0;
  ok = ok && static_cast<bool>(in >> vacancyCount) &&
       vacancyCount < (1ULL << 32);
  for (std::size_t v = 0; ok && v < vacancyCount; ++v) {
    Vec3i p;
    ok = static_cast<bool>(in >> p.x >> p.y >> p.z);
    if (ok) shard.vacancyOrder.push_back(p);
  }
  if (shard.delta) {
    expectKeyword(in, "base", path);
    ok = ok && static_cast<bool>(in >> shard.baseEpoch);
    expectKeyword(in, "pagesites", path);
    std::size_t pageSites = 0;
    ok = ok && static_cast<bool>(in >> pageSites);
    if (ok && pageSites != static_cast<std::size_t>(SpeciesStore::kPageSites))
      throw IoError("delta shard page geometry disagrees with this build: " +
                    path);
    expectKeyword(in, "dirtypages", path);
    std::size_t dirtyCount = 0, totalPages = 0;
    ok = ok && static_cast<bool>(in >> dirtyCount >> totalPages);
    if (!ok) throw IoError("malformed shard: " + path);
    const std::size_t expectPages =
        (shard.siteCount() + pageSites - 1) / pageSites;
    if (totalPages != expectPages || dirtyCount > totalPages)
      throw IoError("delta shard page count disagrees with its box: " + path);
    std::uint32_t prevIndex = 0;
    for (std::size_t p = 0; p < dirtyCount; ++p) {
      expectKeyword(in, "page", path);
      ShardRecord::DirtyPage page;
      std::size_t sites = 0;
      if (!(in >> page.index >> sites))
        throw IoError("malformed shard: " + path);
      if (page.index >= totalPages || (p > 0 && page.index <= prevIndex))
        throw IoError("delta shard page index out of order: " + path);
      const std::size_t begin =
          static_cast<std::size_t>(page.index) * pageSites;
      const std::size_t expectSites =
          std::min(pageSites, shard.siteCount() - begin);
      if (sites != expectSites)
        throw IoError("delta shard page size disagrees with its box: " + path);
      page.species = decodePackedHex(in, sites, path);
      prevIndex = page.index;
      shard.dirtyPages.push_back(std::move(page));
    }
  } else {
    expectKeyword(in, "occupation", path);
    std::size_t sites = 0;
    ok = ok && static_cast<bool>(in >> sites);
    if (!ok) throw IoError("malformed shard: " + path);
    if (sites != shard.siteCount())
      throw IoError("shard occupation count disagrees with its box: " + path);
    shard.species = decodePackedHex(in, sites, path);
  }
  return shard;
}

std::vector<ShardRecord> CheckpointStore::loadShards(
    const EpochManifest& manifest) const {
  std::vector<ShardRecord> shards;
  shards.reserve(manifest.shards.size());
  for (const EpochManifest::ShardEntry& entry : manifest.shards)
    shards.push_back(loadShard(manifest.epoch, entry));
  return shards;
}

void CheckpointStore::applyDeltaShard(ShardRecord& base,
                                      const ShardRecord& delta) {
  require(delta.delta, "applyDeltaShard needs a delta shard");
  require(!base.delta, "delta shards must be applied onto materialized state");
  require(base.rank == delta.rank && base.originCells == delta.originCells &&
              base.extentCells == delta.extentCells,
          "delta shard geometry disagrees with its base");
  for (const ShardRecord::DirtyPage& page : delta.dirtyPages) {
    const std::size_t begin =
        static_cast<std::size_t>(page.index) *
        static_cast<std::size_t>(SpeciesStore::kPageSites);
    require(begin + page.species.size() <= base.species.size(),
            "delta shard page overruns its base run");
    std::copy(page.species.begin(), page.species.end(),
              base.species.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  base.rngState = delta.rngState;
  base.vacancyOrder = delta.vacancyOrder;
}

std::vector<ShardRecord> CheckpointStore::resolveShards(
    std::uint64_t epoch) const {
  if (!chainValid(epoch))
    throw IoError("checkpoint epoch " + std::to_string(epoch) +
                  " does not resolve to a valid chain: " + dir_);
  // Collect the chain top-down: the requested epoch first, its base
  // next, ending at the full epoch. chainValid() already pinned every
  // link (existence, CRCs, strictly-backwards bases, depth bound).
  std::vector<EpochManifest> chain;
  std::uint64_t cur = epoch;
  for (;;) {
    chain.push_back(loadManifest(cur));
    if (!chain.back().isDelta()) break;
    cur = *chain.back().baseEpoch;
  }
  // Materialize the full epoch, then replay deltas in ascending epoch
  // order, matching shards by rank.
  std::vector<ShardRecord> shards = loadShards(chain.back());
  std::map<int, std::size_t> byRank;
  for (std::size_t i = 0; i < shards.size(); ++i)
    byRank[shards[i].rank] = i;
  for (auto level = chain.rbegin() + 1; level != chain.rend(); ++level) {
    for (const EpochManifest::ShardEntry& entry : level->shards) {
      const ShardRecord delta = loadShard(level->epoch, entry);
      const auto at = byRank.find(delta.rank);
      if (at == byRank.end())
        throw IoError("delta shard for rank " + std::to_string(delta.rank) +
                      " has no base shard in epoch " +
                      std::to_string(chain.back().epoch) + ": " + dir_);
      applyDeltaShard(shards[at->second], delta);
    }
  }
  return shards;
}

int CheckpointStore::gcStaleArtifacts() {
  std::vector<std::string> tmpDirs;
  std::vector<std::uint64_t> committed;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_directory()) continue;
    const std::string name = it->path().filename().string();
    std::uint64_t epoch = 0;
    char trailing = 0;
    const int got =
        std::sscanf(name.c_str(), "epoch_%" SCNu64 "%c", &epoch, &trailing);
    if (got == 1)
      committed.push_back(epoch);
    else if (got == 2 && name.size() > 4 &&
             name.compare(name.size() - 4, 4, ".tmp") == 0)
      tmpDirs.push_back(it->path().string());
  }
  int removed = 0;
  for (const std::string& stage : tmpDirs) {
    fs::remove_all(stage, ec);
    if (!ec) ++removed;
  }
  // Committed epochs that fail *local* validation are unloadable by
  // construction — torn manifest or shard. With a remote attached,
  // epochComplete() first tries a verified heal, so an epoch with a
  // sound remote copy is repaired here rather than removed.
  // Chain-invalid but locally-sound deltas are kept: a missing base may
  // reappear on a shared filesystem, and readers skip them regardless.
  for (const std::uint64_t epoch : committed) {
    if (epochComplete(epoch)) continue;
    fs::remove_all(epochPath(epoch), ec);
    if (!ec) ++removed;
  }
  if (removed > 0 && telemetry::enabled())
    telemetry::metrics()
        .counter("checkpoint.gc_stale_dirs")
        .add(static_cast<std::uint64_t>(removed));
  return removed;
}

int CheckpointStore::gcSupersededDeltas(std::uint64_t fullEpoch) {
  int removed = 0;
  std::error_code ec;
  for (const std::uint64_t epoch : epochs()) {
    if (epoch >= fullEpoch) continue;
    bool isDelta = false;
    try {
      isDelta = loadManifest(epoch).isDelta();
    } catch (const std::exception&) {
      continue;  // torn epoch — startup GC's job, not consolidation's
    }
    if (!isDelta) continue;
    fs::remove_all(epochPath(epoch), ec);
    if (!ec) ++removed;
  }
  return removed;
}

LatticeState CheckpointStore::reassemble(const EpochManifest& manifest,
                                         const std::vector<ShardRecord>& shards) {
  BccLattice lattice(manifest.globalCells.x, manifest.globalCells.y,
                     manifest.globalCells.z, manifest.latticeConstant);
  LatticeState state(lattice);
  for (const ShardRecord& shard : shards) {
    std::size_t i = 0;
    // Same traversal as Subdomain::packCellBox over the owned region.
    for (int cz = 0; cz < shard.extentCells.z; ++cz)
      for (int cy = 0; cy < shard.extentCells.y; ++cy)
        for (int cx = 0; cx < shard.extentCells.x; ++cx)
          for (int sub = 0; sub < 2; ++sub) {
            const Vec3i p{2 * (shard.originCells.x + cx) + sub,
                          2 * (shard.originCells.y + cy) + sub,
                          2 * (shard.originCells.z + cz) + sub};
            state.setSpeciesAt(lattice.wrap(p),
                               static_cast<Species>(shard.species[i++]));
          }
  }
  return state;
}

}  // namespace tkmc
