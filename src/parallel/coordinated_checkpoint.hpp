#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lattice/lattice_state.hpp"
#include "lattice/vec3.hpp"

namespace tkmc {
class RemoteShardStore;
}

namespace tkmc {

/// One rank's contribution to a coordinated checkpoint epoch: its owned
/// subdomain occupation (packCellBox traversal order, one species byte
/// per site — CET-packed to four sites per byte on disk), its vacancy
/// list in engine order (the selection RNG addresses vacancies by
/// index, so bit-exact resume needs the ordering, not just the
/// occupation), and its RNG stream state.
struct ShardRecord {
  int rank = 0;
  Vec3i originCells{};
  Vec3i extentCells{};
  std::array<std::uint64_t, 4> rngState{};
  std::vector<Vec3i> vacancyOrder;
  std::vector<std::uint8_t> species;

  /// Delta shards carry only the occupation pages (SpeciesStore page
  /// geometry over the packCellBox run) that changed since the base
  /// epoch, instead of the full `species` run. RNG state and the vacancy
  /// order are always carried whole — they are tiny and change every
  /// cycle anyway.
  struct DirtyPage {
    std::uint32_t index = 0;            // page number within the run
    std::vector<std::uint8_t> species;  // that page's sites, one byte each
  };
  bool delta = false;
  std::uint64_t baseEpoch = 0;  // meaningful only when delta
  std::vector<DirtyPage> dirtyPages;

  /// Sites the species vector must hold (2 per owned unit cell).
  std::size_t siteCount() const {
    return 2ULL * static_cast<std::size_t>(extentCells.x) * extentCells.y *
           extentCells.z;
  }
};

/// The global epoch manifest: everything survivors need to agree on a
/// restart point — rank grid, global box, engine clocks, t_stop, the
/// master seed, and a CRC per shard so a torn or bit-rotted shard
/// disqualifies the whole epoch instead of silently feeding the engine
/// bad state.
struct EpochManifest {
  std::uint64_t epoch = 0;
  Vec3i rankGrid{};
  Vec3i globalCells{};
  double latticeConstant = 0.0;
  double time = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t discarded = 0;
  double tStop = 0.0;
  std::uint64_t seed = 0;

  /// Event catalog the writing engine ran (trajectories are
  /// catalog-dependent, so resume validates it). The default name is
  /// omitted from the on-disk format: vacancy_hop manifests stay byte
  /// identical to pre-catalog builds, and old manifests load as
  /// vacancy_hop.
  std::string catalog = "vacancy_hop";

  struct ShardEntry {
    std::string file;        // relative to the epoch directory
    std::uint32_t crc = 0;   // CRC32 of the shard body (matches its footer)
    std::uint64_t bytes = 0; // full file size, footer included
  };
  std::vector<ShardEntry> shards;

  /// Delta chain link: set when this epoch's shards carry only dirty
  /// pages against `baseEpoch`. `baseCrc` pins the exact base manifest
  /// (the CRC its footer seals), so a recommitted or substituted base
  /// breaks the chain loudly instead of silently feeding reassembly a
  /// different state.
  std::optional<std::uint64_t> baseEpoch;
  std::uint32_t baseCrc = 0;

  /// CRC32 of this manifest's own sealed body. Set by loadManifest() and
  /// returned by commitEpoch(), so the next delta epoch can record its
  /// chain link.
  std::uint32_t selfCrc = 0;

  bool isDelta() const { return baseEpoch.has_value(); }
};

/// Coordinated sharded checkpoint store (`<dir>/epoch_<N>/rank_<R>.tkc`
/// plus `manifest.tkm`), committed atomically per epoch.
///
/// Two-phase write-then-rename: shards and the manifest are staged in
/// `epoch_<N>.tmp/`; only after every rank's shard is staged (the
/// engine runs a commit-vote barrier between the phases) is the staging
/// directory renamed to `epoch_<N>/`. A crash — or an injected
/// `comm.rank_kill` — at any point leaves either a complete committed
/// epoch or a `.tmp` directory that readers ignore; a manifest can
/// never reference a missing or torn shard.
///
/// One read path: resolve() loads an epoch's chain, parsing each
/// manifest and shard once, checks every link on the way and replays the
/// deltas. An epoch is "complete" exactly when it resolves, so
/// newestCompleteEpoch(), chainValid(), resolveShards() and
/// loadNewestResolvable() cannot disagree about a restart point.
///
/// Delta epochs: an epoch may store, per rank, only the occupation
/// pages that changed since a base epoch (plus the full RNG state and
/// vacancy order). The manifest records the `base_epoch` chain link;
/// makeDeltaShard() writes the page diff and applyDeltaShard() replays
/// it.
class CheckpointStore {
 public:
  /// Creates `dir` (and parents) if needed.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Depth bound for delta chains (delta links per chain) used by chain
  /// validation and resolution. Writers consolidate (write a full epoch)
  /// before exceeding it; a reader with a smaller bound treats deeper
  /// chains as invalid.
  void setMaxDeltaChain(int depth);
  int maxDeltaChain() const { return maxDeltaChain_; }

  std::string stagePath(std::uint64_t epoch) const;
  std::string epochPath(std::uint64_t epoch) const;

  /// Phase 1 entry: creates a fresh staging directory for `epoch`
  /// (clearing any leftover from an aborted earlier attempt).
  void beginEpoch(std::uint64_t epoch);

  /// Stages one rank's shard (full or delta — `shard.delta` selects the
  /// format) into the epoch's staging directory and returns its manifest
  /// entry. Publishes `checkpoint.shard_bytes` to telemetry.
  EpochManifest::ShardEntry stageShard(std::uint64_t epoch,
                                       const ShardRecord& shard);

  /// Phase 2: writes the manifest into the staging directory and
  /// atomically renames it over `epoch_<N>/` (replacing a previous
  /// commit of the same epoch, e.g. a replayed cycle). Returns the CRC32
  /// of the manifest body — the value a child delta epoch records as its
  /// `baseCrc` chain link.
  std::uint32_t commitEpoch(const EpochManifest& manifest);

  /// Drops the staging directory of an epoch whose commit barrier
  /// failed (e.g. a rank died mid-commit).
  void abortEpoch(std::uint64_t epoch);

  /// Committed epoch numbers, ascending. Staging (`.tmp`) directories
  /// are never listed.
  std::vector<std::uint64_t> epochs() const;

  /// Attaches a remote mirror (fed by a ShardStreamer). From then on,
  /// an epoch that fails *local* validation is transparently healed:
  /// its files are fetched from the remote copy, verified against the
  /// remote placement map (per-file CRC + size), staged, and swapped
  /// over the broken local directory — so a shard that died with its
  /// node is recovered instead of forcing an older restart point.
  /// newestCompleteEpoch() also considers epochs that exist only
  /// remotely. The store never writes to the remote; streaming is the
  /// ShardStreamer's job.
  void attachRemote(std::shared_ptr<RemoteShardStore> remote);
  const RemoteShardStore* remote() const { return remote_.get(); }

  /// Epochs healed from the remote copy since construction.
  std::uint64_t remoteHeals() const {
    return remoteHeals_.load(std::memory_order_relaxed);
  }

  /// One fully materialized restart point: the epoch, its manifest, and
  /// its resolved (chain-replayed) shards.
  struct ResolvedEpoch {
    std::uint64_t epoch = 0;
    EpochManifest manifest;
    std::vector<ShardRecord> shards;
  };

  /// Materializes `epoch`. Walks its chain once, newest link first,
  /// loading every link's manifest and shards (with a remote attached, a
  /// locally broken link gets one verified heal) and requiring each link
  /// to be non-empty, of its manifest's kind (full or delta shards),
  /// CRC-pinned by its child, strictly older than its child, on the same
  /// grid and cells, and no deeper than maxDeltaChain(). Then replays
  /// the deltas in ascending epoch order, matching shards by rank.
  /// Throws IoError on any failure — a torn chain is never reassembled
  /// into plausible-looking state.
  ResolvedEpoch resolve(std::uint64_t epoch) const;

  /// The newest epoch that resolves, or nullopt. With a remote attached,
  /// epochs that exist only remotely are candidates too.
  std::optional<std::uint64_t> newestCompleteEpoch() const;

  /// resolve() of the newest epoch that resolves: falls back epoch by
  /// epoch past any that fails (a base GC'd mid-recovery, a torn remote
  /// copy). Throws IoError only when no epoch resolves at all.
  ResolvedEpoch loadNewestResolvable() const;

  /// True when resolve(epoch) succeeds.
  bool chainValid(std::uint64_t epoch) const;

  EpochManifest loadManifest(std::uint64_t epoch) const;
  ShardRecord loadShard(std::uint64_t epoch,
                        const EpochManifest::ShardEntry& entry) const;

  /// Loads every shard of `epoch` in manifest order (delta shards stay
  /// deltas; use resolveShards() for materialized state).
  std::vector<ShardRecord> loadShards(const EpochManifest& manifest) const;

  /// resolve(epoch).shards.
  std::vector<ShardRecord> resolveShards(std::uint64_t epoch) const;

  /// The delta of a materialized shard against its base epoch, the
  /// inverse of applyDeltaShard(): the pages whose hash in `pageHashes`
  /// differs from, or has no counterpart in, `basePageHashes` (both
  /// SpeciesStore::runPageHashes() of their species runs), plus the
  /// whole RNG state and vacancy order.
  static ShardRecord makeDeltaShard(
      ShardRecord shard, std::uint64_t baseEpoch,
      const std::vector<std::uint32_t>& basePageHashes,
      const std::vector<std::uint32_t>& pageHashes);

  /// Applies a delta shard onto its materialized base. Throws IoError
  /// when the box differs or a page overruns the base run.
  static void applyDeltaShard(ShardRecord& base, const ShardRecord& delta);

  /// Stitches shard occupations back into a full lattice state.
  static LatticeState reassemble(const EpochManifest& manifest,
                                 const std::vector<ShardRecord>& shards);

  /// Startup GC: removes orphaned `epoch_<N>.tmp` staging directories (a
  /// crash between beginEpoch and commitEpoch leaves them behind
  /// forever) and committed epoch directories whose own manifest or
  /// shards do not load (torn — unloadable by construction; with a
  /// remote attached, a verified heal is tried first). Deltas whose chain
  /// is broken elsewhere are kept: a missing base may reappear on a
  /// shared filesystem, and they do not resolve regardless. Returns the
  /// number of directories removed.
  int gcStaleArtifacts();

  /// Consolidation GC: removes committed *delta* epochs older than
  /// `fullEpoch`. Once a fresh full epoch is committed, every older
  /// delta resolves to an older restart point through a chain the new
  /// full supersedes; full epochs are kept as self-contained fallbacks.
  /// Reads local manifests only: an epoch is never healed just to be
  /// deleted. Returns the number of epochs removed.
  int gcSupersededDeltas(std::uint64_t fullEpoch);

 private:
  /// One epoch as stored: its manifest and shards (deltas unresolved).
  struct StoredEpoch {
    EpochManifest manifest;
    std::vector<ShardRecord> shards;
  };
  /// Parses `epoch`'s manifest and every shard it lists, once. When the
  /// local copy fails, one verified remote heal and a second parse.
  StoredEpoch loadEpoch(std::uint64_t epoch) const;
  EpochManifest loadManifestLocal(std::uint64_t epoch) const;
  /// Fetch+verify+swap one epoch from the remote copy; false when there
  /// is no remote, no valid placement map, or any file fails its
  /// placement CRC/size pin (torn or half-streamed copies are refused
  /// whole — recovery then falls back to an older epoch).
  bool tryHealFromRemote(std::uint64_t epoch) const;
  /// Restart-point candidates, ascending and de-duplicated: committed
  /// local epochs plus every epoch present in the remote store (complete
  /// or not). An epoch whose local directory died with its node is still
  /// a restart point when the remote copy heals (resolve -> loadEpoch
  /// pulls it back).
  std::vector<std::uint64_t> candidateEpochs() const;

  std::string dir_;
  int maxDeltaChain_ = 8;
  std::shared_ptr<RemoteShardStore> remote_;
  mutable std::atomic<std::uint64_t> remoteHeals_{0};
};

}  // namespace tkmc
