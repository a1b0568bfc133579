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

bool CheckpointStore::chainValid(std::uint64_t epoch) const {
  try {
    (void)resolve(epoch);
    return true;
  } catch (const IoError&) {
    return false;
  }
}

std::optional<std::uint64_t> CheckpointStore::newestCompleteEpoch() const {
  try {
    return loadNewestResolvable().epoch;
  } catch (const IoError&) {
    return std::nullopt;
  }
}

CheckpointStore::ResolvedEpoch CheckpointStore::loadNewestResolvable() const {
  const std::vector<std::uint64_t> all = candidateEpochs();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    try {
      return resolve(*it);
    } catch (const IoError&) {
      continue;  // torn, unpinned or yanked chain: try the next older epoch
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

CheckpointStore::StoredEpoch CheckpointStore::loadEpoch(
    std::uint64_t epoch) const {
  const auto parse = [&] {
    StoredEpoch out{loadManifestLocal(epoch), {}};
    if (out.manifest.shards.empty())
      throw IoError("checkpoint manifest lists no shards: " + epochPath(epoch));
    out.shards = loadShards(out.manifest);
    return out;
  };
  try {
    return parse();
  } catch (const IoError&) {
    // A locally torn or missing epoch — a shard that died with its node —
    // gets one shot at a verified remote heal.
    if (!tryHealFromRemote(epoch)) throw;
    return parse();
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

ShardRecord CheckpointStore::makeDeltaShard(
    ShardRecord shard, std::uint64_t baseEpoch,
    const std::vector<std::uint32_t>& basePageHashes,
    const std::vector<std::uint32_t>& pageHashes) {
  require(!shard.delta, "makeDeltaShard needs a materialized shard");
  const std::size_t pageSites =
      static_cast<std::size_t>(SpeciesStore::kPageSites);
  for (std::size_t p = 0; p < pageHashes.size(); ++p) {
    if (p < basePageHashes.size() && basePageHashes[p] == pageHashes[p])
      continue;
    const auto run = shard.species.begin();
    const std::size_t end = std::min((p + 1) * pageSites, shard.species.size());
    shard.dirtyPages.push_back(
        {static_cast<std::uint32_t>(p),
         {run + static_cast<std::ptrdiff_t>(p * pageSites),
          run + static_cast<std::ptrdiff_t>(end)}});
  }
  shard.species = {};
  shard.delta = true;
  shard.baseEpoch = baseEpoch;
  return shard;
}

void CheckpointStore::applyDeltaShard(ShardRecord& base,
                                      const ShardRecord& delta) {
  require(delta.delta, "applyDeltaShard needs a delta shard");
  require(!base.delta, "delta shards must be applied onto materialized state");
  if (base.rank != delta.rank || !(base.originCells == delta.originCells) ||
      !(base.extentCells == delta.extentCells))
    throw IoError("delta shard geometry disagrees with its base (rank " +
                  std::to_string(delta.rank) + ")");
  for (const ShardRecord::DirtyPage& page : delta.dirtyPages) {
    const std::size_t begin =
        static_cast<std::size_t>(page.index) *
        static_cast<std::size_t>(SpeciesStore::kPageSites);
    if (begin + page.species.size() > base.species.size())
      throw IoError("delta shard page overruns its base run (rank " +
                    std::to_string(delta.rank) + ")");
    std::copy(page.species.begin(), page.species.end(),
              base.species.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  base.rngState = delta.rngState;
  base.vacancyOrder = delta.vacancyOrder;
}

CheckpointStore::ResolvedEpoch CheckpointStore::resolve(
    std::uint64_t epoch) const {
  const auto broken = [&](std::uint64_t link, const std::string& why) {
    return IoError("checkpoint epoch " + std::to_string(epoch) +
                   " does not resolve: epoch " + std::to_string(link) + " " +
                   why + ": " + dir_);
  };
  // Load the chain top-down, checking each link as it is read: the
  // requested epoch first, its base next, ending at the full epoch.
  std::vector<StoredEpoch> chain;
  chain.push_back(loadEpoch(epoch));
  for (;;) {
    const EpochManifest& m = chain.back().manifest;
    for (const ShardRecord& shard : chain.back().shards)
      if (shard.delta != m.isDelta())
        throw broken(m.epoch, "mixes full and delta shards");
    if (!m.isDelta()) break;
    if (static_cast<int>(chain.size()) > maxDeltaChain_)
      throw broken(m.epoch, "lies deeper than the delta chain bound");
    if (*m.baseEpoch >= m.epoch)  // chains link strictly backwards
      throw broken(m.epoch, "links forward");
    StoredEpoch base = loadEpoch(*m.baseEpoch);
    // The pin: the base manifest on disk must be the exact one this
    // delta was diffed against — a recommitted or substituted base has a
    // different sealed CRC and breaks the chain here.
    if (base.manifest.selfCrc != m.baseCrc)
      throw broken(m.epoch, "does not match its base's CRC pin");
    if (!(base.manifest.rankGrid == m.rankGrid) ||
        !(base.manifest.globalCells == m.globalCells))
      throw broken(m.epoch, "changes grid or cells against its base");
    chain.push_back(std::move(base));
  }
  // Materialize the full epoch, then replay deltas in ascending epoch
  // order, matching shards by rank.
  std::vector<ShardRecord> shards = std::move(chain.back().shards);
  std::map<int, std::size_t> byRank;
  for (std::size_t i = 0; i < shards.size(); ++i)
    byRank[shards[i].rank] = i;
  for (auto level = chain.rbegin() + 1; level != chain.rend(); ++level) {
    for (const ShardRecord& delta : level->shards) {
      const auto at = byRank.find(delta.rank);
      if (at == byRank.end())
        throw broken(level->manifest.epoch,
                     "has a shard for rank " + std::to_string(delta.rank) +
                         " that its full base lacks");
      applyDeltaShard(shards[at->second], delta);
    }
  }
  return {epoch, std::move(chain.front().manifest), std::move(shards)};
}

std::vector<ShardRecord> CheckpointStore::resolveShards(
    std::uint64_t epoch) const {
  return resolve(epoch).shards;
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
  // A committed epoch whose own files do not load is unloadable by
  // construction — torn manifest or shard. With a remote attached,
  // loadEpoch() first tries a verified heal, so an epoch with a sound
  // remote copy is repaired here rather than removed. Deltas whose chain
  // breaks elsewhere are kept: a missing base may reappear on a shared
  // filesystem, and they do not resolve regardless.
  for (const std::uint64_t epoch : committed) {
    try {
      (void)loadEpoch(epoch);
    } catch (const IoError&) {
      fs::remove_all(epochPath(epoch), ec);
      if (!ec) ++removed;
    }
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
      isDelta = loadManifestLocal(epoch).isDelta();
    } catch (const IoError&) {
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
