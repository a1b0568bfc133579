#include "parallel/parallel_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/stopwatch.hpp"
#include "common/telemetry/telemetry.hpp"

namespace tkmc {
namespace {

constexpr int kTagFold = 50;
constexpr int kTagVote = 60;    // commit-vote barrier: rank -> root
constexpr int kTagCommit = 61;  // commit-vote barrier: root -> rank

// Static span names so the cycle span can be tagged with its sector
// without allocating on the hot path.
constexpr const char* kCycleSpanName[8] = {
    "engine.cycle.s0", "engine.cycle.s1", "engine.cycle.s2",
    "engine.cycle.s3", "engine.cycle.s4", "engine.cycle.s5",
    "engine.cycle.s6", "engine.cycle.s7"};

int wrapMod(int v, int n) {
  int r = v % n;
  if (r < 0) r += n;
  return r;
}

}  // namespace

int requiredGhostCells(const Cet& cet) {
  return (cet.reach() + 1) / 2;  // doubled units -> unit cells, rounded up
}

std::uint64_t recoverySeed(std::uint64_t seed, std::uint64_t epoch,
                           Vec3i rankGrid) {
  // Pure mixing of (seed, epoch, grid) with a domain separator so a
  // recovered stream never collides with the construction-time
  // master.split() sequence of any seed.
  SplitMix64 mix(seed ^ 0x7265736872696e6bULL);
  std::uint64_t h = mix.next() ^ epoch;
  h = SplitMix64(h).next() ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rankGrid.x)) |
       (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rankGrid.y))
        << 20) |
       (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rankGrid.z))
        << 40));
  return SplitMix64(h).next();
}

ParallelEngine::ParallelEngine(const LatticeState& initial, EnergyModel& model,
                               const Cet& cet, ParallelConfig config)
    : lattice_(initial.lattice()), cet_(cet), model_(model),
      config_(std::move(config)), catalog_(makeEventCatalog(config_.catalog)) {
  sparePool_ = config_.spareRanks;
  buildFabric(initial);
  Rng master(config_.seed);
  for (int r = 0; r < rankCount(); ++r) rngs_.push_back(master.split());
  if (openStore()) {
    // Epoch 0: the pre-run restart point. Construction is a local
    // sequential operation with nothing in flight, so no vote barrier.
    // The delta baseline starts invalid, so epoch 0 is always full.
    writeEpoch(/*barrier=*/false);
  }
}

ParallelEngine::ParallelEngine(EnergyModel& model, const Cet& cet,
                               ParallelConfig config,
                               const CheckpointStore& store,
                               std::uint64_t epoch)
    : lattice_(1, 1, 1, 1.0), cet_(cet), model_(model),
      config_(std::move(config)), catalog_(makeEventCatalog(config_.catalog)) {
  sparePool_ = config_.spareRanks;
  // resolve() materializes a delta epoch by replaying its base chain.
  CheckpointStore::ResolvedEpoch resolved = store.resolve(epoch);
  const EpochManifest& manifest = resolved.manifest;
  require(manifest.tStop == config_.tStop,
          "resume tStop must match the manifest (trajectories are "
          "tStop-dependent)");
  require(manifest.catalog == catalog_->name(),
          "resume event catalog '" + std::string(catalog_->name()) +
              "' does not match the manifest's '" + manifest.catalog +
              "' (trajectories are catalog-dependent)");
  config_.seed = manifest.seed;
  adoptEpoch(manifest, resolved.shards);
  // A resumed engine has no baseline: its first epoch is full, which
  // also caps any pre-resume delta chain.
  openStore();
}

ParallelEngine::~ParallelEngine() {
  // Flush the streaming queue so a clean shutdown leaves the remote
  // mirror complete. Bounded: an epoch whose remote keeps failing gives
  // up after its retry budget, so the queue always drains.
  if (streamer_) streamer_->drain();
}

bool ParallelEngine::openStore() {
  if (config_.checkpointDir.empty()) return false;
  store_ = std::make_unique<CheckpointStore>(config_.checkpointDir);
  store_->setMaxDeltaChain(config_.maxDeltaChain);
  if (!config_.remoteDir.empty()) {
    remote_ = std::make_shared<DirRemoteStore>(config_.remoteDir);
    store_->attachRemote(remote_);
    ShardStreamer::Config sc;
    sc.rateMbps = config_.remoteRateMbps;
    sc.retry.maxAttempts = std::max(1, config_.remoteRetries);
    sc.jitterSeed = config_.seed;
    streamer_ = std::make_unique<ShardStreamer>(store_->dir(), remote_, sc);
  }
  store_->gcStaleArtifacts();
  return true;
}

void ParallelEngine::adoptEpoch(const EpochManifest& manifest,
                                const std::vector<ShardRecord>& shards) {
  const LatticeState restored = CheckpointStore::reassemble(manifest, shards);
  lattice_ = restored.lattice();
  rngs_.clear();
  buildFabric(restored);
  if (config_.rankGrid == manifest.rankGrid) {
    // The epoch's own grid: the shards carry each rank's exact RNG
    // stream state and vacancy order, so the original trajectory
    // continues bit-exactly.
    rngs_.assign(static_cast<std::size_t>(rankCount()), Rng(0));
    for (const ShardRecord& shard : shards) {
      require(shard.rank >= 0 && shard.rank < rankCount(),
              "shard rank outside the manifest grid");
      rngs_[static_cast<std::size_t>(shard.rank)].setState(shard.rngState);
      domains_[static_cast<std::size_t>(shard.rank)].setVacancyOrder(
          shard.vacancyOrder);
    }
  } else {
    // A different grid: the streams are reseeded by a pure function of
    // (seed, epoch, grid), so an in-engine recovery and a fresh resume
    // onto the same grid reach the same trajectory.
    Rng master(recoverySeed(manifest.seed, manifest.epoch, config_.rankGrid));
    for (int r = 0; r < rankCount(); ++r) rngs_.push_back(master.split());
  }
  time_ = manifest.time;
  cycles_ = manifest.cycles;
  events_ = manifest.events;
  discarded_ = manifest.discarded;
  // The adopted world diffs against nothing: its next epoch is full.
  baseline_ = DeltaBaseline{};
}

void ParallelEngine::afterCommit(std::uint64_t epoch) {
  if (!streamer_) return;
  streamer_->enqueue(epoch);
  const int lag = streamer_->lagEpochs();
  if (telemetry::enabled()) {
    telemetry::metrics().gauge("checkpoint.remote_lag_epochs").set(
        static_cast<double>(lag));
    telemetry::metrics().histogram("checkpoint.remote_lag").observe(
        static_cast<double>(lag));
  }
  if (lag > config_.remoteMaxLagEpochs) {
    // Throttle instead of losing epochs: a bounded wait for the
    // streamer to catch up. Local commits already succeeded; a remote
    // that stays dead exhausts each epoch's retry budget and the queue
    // drains regardless, so this can never wedge the run.
    if (telemetry::enabled())
      telemetry::metrics().counter("checkpoint.remote_throttles").add(1);
    streamer_->waitForLag(config_.remoteMaxLagEpochs, 60000.0);
  }
}

void ParallelEngine::buildFabric(const LatticeState& initial) {
  require(model_.supportsVet(),
          "parallel engine requires a VET-capable energy backend");
  // The team is rebuilt with the fabric: recovery can change the rank
  // count, and a threaded team's threads are parked between phases, so
  // destroying the old one is a plain join.
  fabric_ = std::make_unique<Fabric>(
      Vec3i{lattice_.cellsX(), lattice_.cellsY(), lattice_.cellsZ()},
      config_.rankGrid, config_.threaded);
  const int reach = cet_.reach();
  const int ghost = (reach + 1) / 2;
  const Vec3i extent = fabric_->decomp.extentCells();
  require(extent.x % 2 == 0 && extent.y % 2 == 0 && extent.z % 2 == 0,
          "subdomain extents must be even (octant sectors)");
  // Sector separation: concurrently active octants of neighbouring ranks
  // are one sector width apart; that width must exceed the span a sector
  // window can influence (vacancy-system radius plus one hop).
  const int minSectorDoubled = reach + 2;
  require(extent.x >= minSectorDoubled && extent.y >= minSectorDoubled &&
              extent.z >= minSectorDoubled,
          "subdomains too small for conflict-free sublattice sectors at "
          "this cutoff");

  // An axis decomposed on a single rank carries no ghost shell (the
  // subdomain spans the whole period there), so flat grids like 2x2x1
  // keep the extended frame within the global box.
  const Vec3i grid = config_.rankGrid;
  const Vec3i ghostVec{grid.x > 1 ? ghost : 0, grid.y > 1 ? ghost : 0,
                       grid.z > 1 ? ghost : 0};
  domains_.clear();
  domains_.reserve(static_cast<std::size_t>(rankCount()));
  for (int r = 0; r < rankCount(); ++r) {
    domains_.emplace_back(lattice_, fabric_->decomp.originCells(r), extent,
                          ghostVec);
    domains_.back().attachCache(cet_, *catalog_);
    domains_.back().loadFrom(initial);
  }
  pendingChanges_.assign(static_cast<std::size_t>(rankCount()), {});
  cycleEvents_.assign(static_cast<std::size_t>(rankCount()), 0);
  cycleDiscarded_.assign(static_cast<std::size_t>(rankCount()), 0);
  rankEventOrdinals_.assign(static_cast<std::size_t>(rankCount()), 0);
  const auto types = static_cast<std::size_t>(catalog_->typeCount());
  cycleEventsByType_.assign(static_cast<std::size_t>(rankCount()),
                            std::vector<std::uint64_t>(types, 0));
  // Per-type lifetime counts restart with the fabric: a recovered epoch's
  // manifest records only the aggregate event total, so the breakdown
  // counts events committed since construction or the last recovery.
  eventsByType_.assign(types, 0);
  eventTypeMetricNames_.clear();
  for (int t = 0; t < catalog_->typeCount(); ++t)
    eventTypeMetricNames_.push_back(std::string("engine.events.by_type.") +
                                    catalog_->typeInfo(t).name);
  expectedVacancies_ = vacancyCount();
  fabric_->exchange.setMaxAttempts(config_.commMaxAttempts);
  if (config_.heartbeatTimeoutMs > 0.0)
    fabric_->comm.setLease(config_.heartbeatIntervalMs,
                           config_.heartbeatTimeoutMs);
}

Vec3i ParallelEngine::localCell(int rank, Vec3i p) const {
  const Vec3i w = lattice_.wrap(p);
  const Vec3i origin = fabric_->decomp.originCells(rank);
  const Vec3i e = fabric_->decomp.extentCells();
  const int cx = wrapMod((w.x >> 1) - origin.x, lattice_.cellsX());
  const int cy = wrapMod((w.y >> 1) - origin.y, lattice_.cellsY());
  const int cz = wrapMod((w.z >> 1) - origin.z, lattice_.cellsZ());
  return {cx < e.x ? cx : -1, cy < e.y ? cy : -1, cz < e.z ? cz : -1};
}

bool ParallelEngine::inSector(int rank, Vec3i p, int sector) const {
  const Vec3i cell = localCell(rank, p);
  if (cell.x < 0 || cell.y < 0 || cell.z < 0) return false;
  const Vec3i e = fabric_->decomp.extentCells();
  const bool hx = cell.x >= e.x / 2;
  const bool hy = cell.y >= e.y / 2;
  const bool hz = cell.z >= e.z / 2;
  return (static_cast<int>(hx) | (static_cast<int>(hy) << 1) |
          (static_cast<int>(hz) << 2)) == sector;
}

void ParallelEngine::runSector(int rank, int sector) {
  Subdomain& sd = domains_[static_cast<std::size_t>(rank)];
  VacancyCache& cache = sd.cache();
  Rng& rng = rngs_[static_cast<std::size_t>(rank)];
  auto& changes = pendingChanges_[static_cast<std::size_t>(rank)];
  const int types = catalog_->typeCount();

  // The rank's cache keeps every vacancy's rates across windows and
  // cycles; only an entry whose VET changed since its last evaluation is
  // dirty. A window needs just its sector membership.
  std::vector<bool> active(static_cast<std::size_t>(cache.size()));
  for (int v = 0; v < cache.size(); ++v)
    active[static_cast<std::size_t>(v)] = inSector(rank, cache.center(v), sector);

  double tLocal = 0.0;
  while (true) {
    // Refresh every dirty active system in one backend dispatch, in
    // ascending index order. Rates are pure functions of the VET, so a
    // clean entry holds exactly what a re-evaluation would produce, and
    // the RNG stream is consumed onto the same events.
    {
      // Rank threads share one backend instance; backends with mutable
      // scratch are serialized (energies are pure functions of the VETs,
      // so serialization cannot change the trajectory).
      std::unique_lock<std::mutex> lock(modelMutex_, std::defer_lock);
      if (fabric_->team.threaded() && !model_.concurrentDispatchSafe())
        lock.lock();
      cache.refresh(model_, config_.temperature, &active,
                    {rank, sector, cycles_, "engine.batch_size"});
    }
    // Total and selection scan share the same type-major summation
    // order, so the chosen event is exactly the one the cumulative sum
    // crossed; with one type both degenerate to the historical site
    // scan bit-for-bit.
    double total = 0.0;
    for (int t = 0; t < types; ++t)
      for (int v = 0; v < cache.size(); ++v)
        if (active[static_cast<std::size_t>(v)]) total += cache.rates(v, t).total;
    if (!std::isfinite(total) || total < 0.0)
      throw InvariantError("propensity sum insane in sector window: " +
                           std::to_string(total));
    if (total <= 0.0) break;

    const double u1 = rng.uniform();
    double target = u1 * total;
    int chosenType = 0;
    int chosen = 0;
    bool found = false;
    for (int t = 0; t < types && !found; ++t) {
      for (int v = 0; v < cache.size(); ++v) {
        if (!active[static_cast<std::size_t>(v)]) continue;
        chosenType = t;
        chosen = v;
        target -= cache.rates(v, t).total;
        if (target < 0.0) {
          found = true;
          break;
        }
      }
    }
    require(found || target < 1e-9 * total, "event selection overflow");
    if (!found) {
      // fp boundary (u1 * total landed past the cumulative sum): walk
      // back to the last active event with non-zero propensity, so a
      // zero-rate tail slot — e.g. an inapplicable (type, site) pair —
      // can never be executed.
      for (int t = types - 1; t >= 0 && !found; --t) {
        for (int v = cache.size(); v-- > 0;) {
          if (!active[static_cast<std::size_t>(v)] ||
              cache.rates(v, t).total <= 0.0)
            continue;
          chosenType = t;
          chosen = v;
          found = true;
          break;
        }
      }
      require(found, "no feasible event despite positive propensity");
    }

    const JumpRates& jr = cache.rates(chosen, chosenType);
    const int arity = catalog_->typeInfo(chosenType).arity;
    const double u2 = rng.uniform();
    double dirTarget = u2 * jr.total;
    int direction = 0;
    for (; direction < arity - 1; ++direction) {
      dirTarget -= jr.rate[static_cast<std::size_t>(direction)];
      if (dirTarget < 0.0) break;
    }
    while (direction > 0 && jr.rate[static_cast<std::size_t>(direction)] == 0.0)
      --direction;

    const double dt = residenceTime(rng.uniformOpenLeft(), total);
    if (tLocal + dt > config_.tStop) {
      // Event beyond the window: discard and stop (Shim-Amar rule).
      ++cycleDiscarded_[static_cast<std::size_t>(rank)];
      break;
    }
    tLocal += dt;

    const Vec3i from = cache.center(chosen);
    const Vec3i to =
        lattice_.wrap(from + catalog_->candidateOffset(chosenType, direction));
    // The subdomain moves the vacancy's list and cache entries with it
    // and patches every other cached system the two writes touch.
    const Species migrating = sd.hopVacancy(chosen, to);
    changes.push_back({from, migrating});
    changes.push_back({to, Species::kVacancy});
    if (sd.owns(to))
      active[static_cast<std::size_t>(chosen)] = inSector(rank, to, sector);
    else
      active.erase(active.begin() + chosen);
    ++cycleEvents_[static_cast<std::size_t>(rank)];
    ++cycleEventsByType_[static_cast<std::size_t>(rank)]
                        [static_cast<std::size_t>(chosenType)];
    // Blackbox payload is the rank's own event ordinal: a global one
    // would depend on which rank thread got there first.
    const std::uint64_t ordinal =
        ++rankEventOrdinals_[static_cast<std::size_t>(rank)];
    telemetry::flightRecorder().record(
        rank, telemetry::BlackboxEventType::kKmcEvent, sector, ordinal,
        static_cast<std::uint64_t>(direction));
  }
}

void ParallelEngine::foldChanges() {
  TKMC_SPAN("engine.fold");
  SimComm& comm = fabric_->comm;
  const auto ranks = static_cast<std::size_t>(rankCount());
  constexpr std::size_t kStride = 3 * sizeof(std::int32_t) + 1;
  // The fold is four bulk-synchronous phases, each expressed as one job
  // per rank: serialize, transmit, collect, apply. The rank team runs
  // each phase across the rank threads with a barrier in between, or
  // inline in rank order; both produce the same channel traffic and the
  // same owner-side application order (inbound is indexed by source
  // rank, not arrival order).
  std::vector<std::vector<std::vector<std::uint8_t>>> outbound(
      ranks, std::vector<std::vector<std::uint8_t>>(ranks));
  std::vector<std::vector<std::vector<std::uint8_t>>> inbound(
      ranks, std::vector<std::vector<std::uint8_t>>(ranks));

  // Phase 1: serialize boundary modifications per (source, owner) pair.
  // The buffers outlive the sends so a failed delivery can be
  // retransmitted verbatim.
  const auto serialize = [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    for (const Change& c : pendingChanges_[r]) {
      const int owner = fabric_->decomp.ownerOfSite(c.site);
      if (owner == rank) continue;
      auto& buf = outbound[r][static_cast<std::size_t>(owner)];
      const std::int32_t coords[3] = {c.site.x, c.site.y, c.site.z};
      const std::size_t at = buf.size();
      buf.resize(at + sizeof(coords) + 1);
      std::memcpy(buf.data() + at, coords, sizeof(coords));
      buf[at + sizeof(coords)] = static_cast<std::uint8_t>(c.species);
    }
  };
  // Phase 2: transmit. Every rank sends exactly one fold message to
  // every rank (possibly empty), so the receive side knows exactly what
  // to expect on each channel. A dead rank's sends silently no-op
  // (fail-stop), which is what the receive side's lease protocol
  // eventually detects.
  const auto transmit = [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    for (std::size_t to = 0; to < ranks; ++to)
      comm.send(rank, static_cast<int>(to), kTagFold, outbound[r][to]);
  };
  // Phase 3: collect and validate every payload before applying any of
  // them. Fold application mutates vacancy lists and is not idempotent,
  // so a failed receive must not leave a half-applied fold behind; with
  // application deferred, a lost or corrupt frame is handled by purging
  // that one channel and retransmitting from the buffered copy (ARQ).
  // Only the acting (receiving) rank's liveness is consulted — a
  // receiver must keep waiting on a silent source for the failure
  // detector to do its job.
  const auto collect = [&](int rank) {
    if (!comm.rankAlive(rank)) return;
    const auto r = static_cast<std::size_t>(rank);
    for (std::size_t from = 0; from < ranks; ++from) {
      inbound[r][from] = comm.receiveReliable(
          rank, static_cast<int>(from), kTagFold, outbound[from][r],
          config_.commMaxAttempts, foldRetries_, "fold");
      if (inbound[r][from].size() % kStride != 0)
        throw CommError("malformed fold payload from rank " +
                        std::to_string(from) + " to rank " +
                        std::to_string(rank));
    }
  };
  // Phase 4: owners apply the folded changes (each rank writes only its
  // own subdomain, in source-rank order).
  const auto apply = [&](int rank) {
    if (!comm.rankAlive(rank)) return;
    const auto r = static_cast<std::size_t>(rank);
    Subdomain& sd = domains_[r];
    for (std::size_t from = 0; from < ranks; ++from) {
      const auto& payload = inbound[r][from];
      for (std::size_t off = 0; off < payload.size(); off += kStride) {
        std::int32_t coords[3];
        std::memcpy(coords, payload.data() + off, sizeof(coords));
        const Vec3i site{coords[0], coords[1], coords[2]};
        const auto species =
            static_cast<Species>(payload[off + sizeof(coords)]);
        sd.applyFold(site, species);
      }
    }
    pendingChanges_[r].clear();
  };

  RankTeam& team = fabric_->team;
  team.run(serialize);
  team.run(transmit);
  team.run(collect);
  team.run(apply);
}

ShardRecord ParallelEngine::makeShard(int rank) const {
  const Subdomain& sd = domains_[static_cast<std::size_t>(rank)];
  ShardRecord shard;
  shard.rank = rank;
  shard.originCells = sd.originCells();
  shard.extentCells = sd.extentCells();
  shard.rngState = rngs_[static_cast<std::size_t>(rank)].state();
  shard.vacancyOrder = sd.vacancies();
  const Vec3i g = sd.ghostCellsVec();
  const Vec3i e = sd.extentCells();
  shard.species =
      sd.packCellBox({g.x, g.y, g.z}, {g.x + e.x, g.y + e.y, g.z + e.z});
  return shard;
}

void ParallelEngine::commitVoteBarrier(std::uint64_t epoch) {
  SimComm& comm = fabric_->comm;
  const int root = 0;
  std::vector<std::uint8_t> token(sizeof(std::uint64_t));
  std::memcpy(token.data(), &epoch, sizeof(epoch));
  // Every rank of the current world votes; the root waits for votes
  // from ALL of them — not just the ones it believes alive — before the
  // epoch is published. A rank that died at any point this cycle
  // (including on the vote send itself) goes silent here, the root's
  // lease poll surfaces RankFailure, and the caller aborts the staged
  // epoch — a manifest can never reference a missing shard. A dead
  // root cannot collect votes (or commit); the ack phase exposes it.
  for (int r = 0; r < rankCount(); ++r)
    if (r != root) comm.send(r, root, kTagVote, token);
  if (!comm.rankAlive(root)) return;
  for (int r = 0; r < rankCount(); ++r)
    if (r != root)
      (void)comm.receiveReliable(root, r, kTagVote, token,
                                 config_.commMaxAttempts, foldRetries_,
                                 "commit vote");
}

void ParallelEngine::writeEpoch(bool barrier) {
  TKMC_SPAN("engine.checkpoint");
  const std::uint64_t epoch = cycles_;
  store_->beginEpoch(epoch);
  try {
    SimComm& comm = fabric_->comm;
    // Delta eligibility: mode armed, a valid baseline on this very grid
    // with room left in the chain (consolidation: the epoch that would
    // exceed maxDeltaChain links is written full instead), and a full
    // world — a rank missing from a delta epoch would silently pin its
    // base-epoch state through the replay.
    const bool delta =
        config_.checkpointMode == CheckpointMode::kDelta && baseline_.valid &&
        baseline_.rankGrid == fabric_->decomp.rankGrid() &&
        baseline_.chainDepth < config_.maxDeltaChain &&
        comm.aliveCount() == rankCount();
    EpochManifest manifest;
    manifest.epoch = epoch;
    manifest.rankGrid = fabric_->decomp.rankGrid();
    manifest.globalCells = {lattice_.cellsX(), lattice_.cellsY(),
                            lattice_.cellsZ()};
    manifest.latticeConstant = lattice_.latticeConstant();
    manifest.time = time_;
    manifest.cycles = cycles_;
    manifest.events = events_;
    manifest.discarded = discarded_;
    manifest.tStop = config_.tStop;
    manifest.seed = config_.seed;
    manifest.catalog = catalog_->name();
    if (delta) {
      manifest.baseEpoch = baseline_.epoch;
      manifest.baseCrc = baseline_.manifestCrc;
    }
    std::vector<std::vector<std::uint32_t>> newHashes(
        static_cast<std::size_t>(rankCount()));
    std::size_t dirtyTotal = 0;
    std::size_t pageTotal = 0;
    for (int r = 0; r < rankCount(); ++r) {
      if (!comm.rankAlive(r)) continue;  // a dead rank can't write a shard
      ShardRecord shard = makeShard(r);
      const std::size_t rank = static_cast<std::size_t>(r);
      // Page hashes are only kept where a delta can follow.
      if (config_.checkpointMode == CheckpointMode::kDelta)
        newHashes[rank] = SpeciesStore::runPageHashes(shard.species);
      if (delta) {
        pageTotal += newHashes[rank].size();
        shard = CheckpointStore::makeDeltaShard(
            std::move(shard), baseline_.epoch, baseline_.pageHashes[rank],
            newHashes[rank]);
        dirtyTotal += shard.dirtyPages.size();
      }
      manifest.shards.push_back(store_->stageShard(epoch, shard));
      telemetry::flightRecorder().record(
          r, telemetry::BlackboxEventType::kCheckpointStage, delta ? 1 : 0,
          epoch, manifest.shards.back().bytes);
    }
    if (delta && telemetry::enabled()) {
      telemetry::metrics()
          .histogram("checkpoint.delta_pages")
          .observe(static_cast<double>(dirtyTotal));
      if (pageTotal > 0)
        telemetry::metrics()
            .gauge("checkpoint.delta_ratio")
            .set(static_cast<double>(dirtyTotal) /
                 static_cast<double>(pageTotal));
    }
    // Runs only after a successful commit: the committed epoch becomes
    // the diff base of the next one, and a fresh full epoch supersedes
    // every older delta.
    const auto adoptBaseline = [&](std::uint32_t manifestCrc) {
      telemetry::flightRecorder().record(
          0, telemetry::BlackboxEventType::kCommitEpoch, delta ? 1 : 0, epoch,
          manifestCrc);
      baseline_.valid = true;
      baseline_.epoch = epoch;
      baseline_.manifestCrc = manifestCrc;
      baseline_.chainDepth = delta ? baseline_.chainDepth + 1 : 0;
      baseline_.rankGrid = fabric_->decomp.rankGrid();
      baseline_.pageHashes = std::move(newHashes);
      if (!delta && config_.checkpointMode == CheckpointMode::kDelta)
        store_->gcSupersededDeltas(epoch);
      afterCommit(epoch);
    };
    if (!barrier) {
      adoptBaseline(store_->commitEpoch(manifest));
    } else {
      const int root = 0;
      commitVoteBarrier(epoch);
      if (comm.rankAlive(root)) {
        // All votes collected, so every rank is alive and every shard
        // staged: the manifest is complete by construction.
        require(manifest.shards.size() ==
                    static_cast<std::size_t>(rankCount()),
                "commit barrier passed with missing shards");
        adoptBaseline(store_->commitEpoch(manifest));
      }
      // Commit announcement. A dead root never commits and never acks,
      // so the survivors detect it here and recover from the previous
      // epoch; if the root dies on an ack send after committing, the
      // recovery resumes from this very epoch (zero rollback).
      std::vector<std::uint8_t> token(sizeof(std::uint64_t));
      std::memcpy(token.data(), &epoch, sizeof(epoch));
      for (int r = 0; r < rankCount(); ++r)
        if (r != root) comm.send(root, r, kTagCommit, token);
      for (int r = 0; r < rankCount(); ++r)
        if (r != root && comm.rankAlive(r))
          (void)comm.receiveReliable(r, root, kTagCommit, token,
                                     config_.commMaxAttempts, foldRetries_,
                                     "commit ack");
    }
  } catch (...) {
    // Harmless after a successful commit (the staging directory is
    // already gone); essential before it.
    store_->abortEpoch(epoch);
    throw;
  }
}

void ParallelEngine::executeCycle() {
  if (faultFires("engine.cycle"))
    throw InvariantError("injected engine-cycle fault");
  const int sector = static_cast<int>(cycles_ % 8);
  TKMC_SPAN(kCycleSpanName[sector]);
  for (int r = 0; r < rankCount(); ++r)
    if (fabric_->comm.rankAlive(r))
      telemetry::flightRecorder().record(
          r, telemetry::BlackboxEventType::kCycle, sector, cycles_);
  std::fill(cycleEvents_.begin(), cycleEvents_.end(), 0);
  std::fill(cycleDiscarded_.begin(), cycleDiscarded_.end(), 0);
  for (auto& perType : cycleEventsByType_)
    std::fill(perType.begin(), perType.end(), 0);
  {
    TKMC_SPAN("engine.sectors");
    // One job per rank; sector geometry guarantees the concurrently
    // active regions cannot interact, and each job touches only its
    // rank's subdomain, RNG stream, and counters.
    fabric_->team.run([&](int r) {
      if (!fabric_->comm.rankAlive(r)) return;
      TKMC_SPAN_TID("engine.sector", r);
      runSector(r, sector);
    });
  }
  // Rank-order reduction: totals are independent of which thread
  // finished first, so threaded and sequential runs agree bit-for-bit.
  for (std::size_t r = 0; r < cycleEvents_.size(); ++r) {
    events_ += cycleEvents_[r];
    discarded_ += cycleDiscarded_[r];
    for (std::size_t t = 0; t < eventsByType_.size(); ++t)
      eventsByType_[t] += cycleEventsByType_[r][t];
  }
  foldChanges();
  fabric_->exchange.exchangeAll(domains_, &fabric_->team);
  time_ += config_.tStop;
  ++cycles_;
  if (store_ && config_.checkpointCadence > 0 &&
      cycles_ % static_cast<std::uint64_t>(config_.checkpointCadence) == 0)
    writeEpoch(/*barrier=*/true);
}

void ParallelEngine::verifyInvariants() {
  if (vacancyCount() != expectedVacancies_) {
    ++recovery_.invariantTrips;
    telemetry::flightRecorder().record(
        0, telemetry::BlackboxEventType::kInvariantTrip, 0, cycles_);
    telemetry::flightRecorder().dumpIncident("invariant_trip");
    throw InvariantError("vacancy conservation violated after cycle " +
                         std::to_string(cycles_) + ": expected " +
                         std::to_string(expectedVacancies_) + ", counted " +
                         std::to_string(vacancyCount()));
  }
  if (config_.invariantCadence > 0 &&
      cycles_ % static_cast<std::uint64_t>(config_.invariantCadence) == 0 &&
      !ghostsConsistent()) {
    ++recovery_.invariantTrips;
    telemetry::flightRecorder().record(
        0, telemetry::BlackboxEventType::kInvariantTrip, 1, cycles_);
    telemetry::flightRecorder().dumpIncident("invariant_trip");
    throw InvariantError("ghost shells inconsistent after cycle " +
                         std::to_string(cycles_));
  }
}

void ParallelEngine::takeSnapshot() {
  snapshot_.domains = domains_;
  snapshot_.rngStates.clear();
  for (const Rng& r : rngs_) snapshot_.rngStates.push_back(r.state());
  snapshot_.time = time_;
  snapshot_.cycles = cycles_;
  snapshot_.events = events_;
  snapshot_.discarded = discarded_;
  snapshot_.eventsByType = eventsByType_;
  snapshot_.baseline = baseline_;
}

void ParallelEngine::restoreSnapshot() {
  domains_ = snapshot_.domains;
  for (Subdomain& sd : domains_) sd.requestResync();
  for (std::size_t i = 0; i < rngs_.size(); ++i)
    rngs_[i].setState(snapshot_.rngStates[i]);
  time_ = snapshot_.time;
  cycles_ = snapshot_.cycles;
  events_ = snapshot_.events;
  discarded_ = snapshot_.discarded;
  eventsByType_ = snapshot_.eventsByType;
  baseline_ = snapshot_.baseline;
  for (auto& changes : pendingChanges_) changes.clear();
  fabric_->comm.resetAllChannels();
}

void ParallelEngine::recoverFromRankFailure(const RankFailure& failure) {
  namespace tm = telemetry;
  Stopwatch watch;
  const int survivors = fabric_->comm.aliveCount();
  require(survivors >= 1, "no survivors left to recover with");
  // loadNewestResolvable tolerates restart points yanked between
  // validation and load (a delta base GC'd mid-recovery, a torn remote
  // copy) by falling back epoch-by-epoch — and, with a remote store
  // attached, heals epochs whose local shards died with their node.
  CheckpointStore::ResolvedEpoch resolved;
  try {
    resolved = store_->loadNewestResolvable();
  } catch (const IoError&) {
    throw RankFailure(failure.rank(), failure.detectMs(),
                      std::string(failure.what()) +
                          " (no complete checkpoint epoch to recover from)");
  }
  const EpochManifest& manifest = resolved.manifest;
  const std::uint64_t rolledBack = cycles_ - manifest.cycles;
  recovery_.epochsRolledBack += rolledBack;
  lastRecoveryEpoch_ = manifest.epoch;
  // Elastic regrow first: with spares available the survivors re-admit
  // replacement ranks and keep the epoch's own grid; otherwise every
  // available rank is offered to the shrink policy. Deterministic, so
  // all survivors agree without another round.
  config_.rankGrid = growRankGrid(manifest.rankGrid, survivors, sparePool_);
  const int admitted = std::max(
      0, config_.rankGrid.x * config_.rankGrid.y * config_.rankGrid.z -
             survivors);
  sparePool_ -= admitted;
  if (admitted > 0) ++recovery_.growRecoveries;
  // On the epoch's own grid (grow recovery, or a failure detected after
  // an earlier recovery already reshaped the world to this grid) the
  // continuation is bit-identical to a fresh same-grid resume — and, at
  // cadence 1, to the uninterrupted run.
  adoptEpoch(manifest, resolved.shards);
  takeSnapshot();
  tm::flightRecorder().record(0, tm::BlackboxEventType::kRecovery,
                              admitted > 0 ? 1 : 0, manifest.epoch,
                              rolledBack);
  if (tm::enabled()) {
    tm::metrics().counter("recovery.rank_failures").inc();
    tm::metrics().counter("recovery.epochs_rolled_back").add(rolledBack);
    if (admitted > 0) tm::metrics().counter("recovery.grow_count").inc();
    tm::metrics().histogram("recovery.detect_ms").observe(failure.detectMs());
    tm::metrics()
        .histogram("recovery.latency_seconds")
        .observe(watch.seconds());
  }
}

void ParallelEngine::runCycle() {
  namespace tm = telemetry;
  const bool instrumented = tm::enabled();
  Stopwatch watch;
  if (!config_.enableRecovery) {
    executeCycle();
    if (instrumented) {
      tm::metrics().histogram("engine.cycle_seconds").observe(watch.seconds());
      publishTelemetry();
    }
    return;
  }
  {
    TKMC_SPAN("engine.snapshot");
    takeSnapshot();
  }
  for (int attempt = 1;; ++attempt) {
    try {
      executeCycle();
      {
        TKMC_SPAN("engine.invariants");
        verifyInvariants();
      }
      if (instrumented) {
        tm::metrics()
            .histogram("engine.cycle_seconds")
            .observe(watch.seconds());
        publishTelemetry();
      }
      return;
    } catch (const RankFailure& failure) {
      // Shrink recovery: needs a checkpoint store to restart from.
      // recoverFromRankFailure rebuilds the fabric and re-takes the
      // snapshot at the recovered epoch, so the replay budget resets.
      if (!store_) throw;
      ++recovery_.rankFailures;
      tm::tracer().instant("engine.rank_failure");
      tm::flightRecorder().record(
          failure.rank(), tm::BlackboxEventType::kRankFailureDetected, 0,
          static_cast<std::uint64_t>(failure.rank()),
          static_cast<std::uint64_t>(failure.detectMs()));
      // Dump the blackboxes *before* recovery rebuilds the world, so the
      // post-mortem shows the state the failure was detected in.
      tm::flightRecorder().dumpIncident("rank_failure");
      recoverFromRankFailure(failure);
      attempt = 0;
      continue;
    } catch (const CommError&) {
      ++recovery_.commErrors;
      if (attempt >= config_.maxReplays) throw;
    } catch (const InvariantError&) {
      if (attempt >= config_.maxReplays) throw;
    }
    // Roll back to the sync boundary and replay. The engine RNG streams
    // rewind with the snapshot (so the physics replays identically) but
    // the fault injector's streams advance, so an injected transient
    // does not recur deterministically on the replay.
    ++recovery_.rollbacks;
    tm::tracer().instant("engine.rollback");
    tm::flightRecorder().record(0, tm::BlackboxEventType::kRollback, attempt,
                                cycles_);
    TKMC_SPAN("engine.rollback_restore");
    restoreSnapshot();
  }
}

RecoveryStats ParallelEngine::recoveryStats() const {
  RecoveryStats stats = recovery_;
  stats.ghostRetries = fabric_->exchange.retries();
  stats.foldRetries = foldRetries_.load(std::memory_order_relaxed);
  return stats;
}

void ParallelEngine::publishTelemetry() const {
  namespace tm = telemetry;
  if (!tm::enabled()) return;
  tm::MetricsRegistry& reg = tm::metrics();
  reg.gauge("engine.cycles").set(static_cast<double>(cycles_));
  reg.gauge("engine.time_seconds").set(time_);
  reg.gauge("engine.events").set(static_cast<double>(events_));
  reg.gauge("engine.discarded_events").set(static_cast<double>(discarded_));
  for (std::size_t t = 0; t < eventTypeMetricNames_.size(); ++t)
    reg.gauge(eventTypeMetricNames_[t])
        .set(static_cast<double>(eventsByType_[t]));
  reg.gauge("engine.ranks").set(static_cast<double>(rankCount()));
  reg.gauge("engine.alive_ranks")
      .set(static_cast<double>(fabric_->comm.aliveCount()));
  reg.gauge("engine.vacancies").set(static_cast<double>(vacancyCount()));
  const RecoveryStats rs = recoveryStats();
  reg.gauge("recovery.rollbacks").set(static_cast<double>(rs.rollbacks));
  reg.gauge("recovery.invariant_trips")
      .set(static_cast<double>(rs.invariantTrips));
  reg.gauge("recovery.comm_errors").set(static_cast<double>(rs.commErrors));
  reg.gauge("recovery.ghost_retries").set(static_cast<double>(rs.ghostRetries));
  reg.gauge("recovery.fold_retries").set(static_cast<double>(rs.foldRetries));
  const SimComm& comm = fabric_->comm;
  reg.gauge("comm.bytes_sent").set(static_cast<double>(comm.totalBytesSent()));
  reg.gauge("comm.messages_sent")
      .set(static_cast<double>(comm.totalMessagesSent()));
  reg.gauge("comm.crc_failures").set(static_cast<double>(comm.crcFailures()));
  reg.gauge("comm.duplicates_dropped")
      .set(static_cast<double>(comm.duplicatesDropped()));
  reg.gauge("comm.retransmits")
      .set(static_cast<double>(rs.ghostRetries + rs.foldRetries));
}

void ParallelEngine::run(double tEnd) {
  while (time_ < tEnd) runCycle();
}

std::int64_t ParallelEngine::vacancyCount() const {
  std::int64_t total = 0;
  for (const Subdomain& sd : domains_)
    total += static_cast<std::int64_t>(sd.vacancies().size());
  return total;
}

LatticeState ParallelEngine::assembleGlobalState() const {
  LatticeState out(lattice_);
  for (int r = 0; r < rankCount(); ++r) {
    const Subdomain& sd = domains_[static_cast<std::size_t>(r)];
    const Vec3i origin = fabric_->decomp.originCells(r);
    const Vec3i e = fabric_->decomp.extentCells();
    for (int cz = 0; cz < e.z; ++cz)
      for (int cy = 0; cy < e.y; ++cy)
        for (int cx = 0; cx < e.x; ++cx)
          for (int sub = 0; sub < 2; ++sub) {
            const Vec3i p{2 * (origin.x + cx) + sub, 2 * (origin.y + cy) + sub,
                          2 * (origin.z + cz) + sub};
            out.setSpeciesAt(lattice_.wrap(p), sd.speciesAt(p));
          }
  }
  return out;
}

bool ParallelEngine::ghostsConsistent() const {
  const LatticeState global = assembleGlobalState();
  for (int r = 0; r < rankCount(); ++r) {
    const Subdomain& sd = domains_[static_cast<std::size_t>(r)];
    const Vec3i origin = fabric_->decomp.originCells(r);
    const Vec3i e = fabric_->decomp.extentCells();
    const Vec3i g = sd.ghostCellsVec();
    for (int cz = -g.z; cz < e.z + g.z; ++cz)
      for (int cy = -g.y; cy < e.y + g.y; ++cy)
        for (int cx = -g.x; cx < e.x + g.x; ++cx)
          for (int sub = 0; sub < 2; ++sub) {
            const Vec3i p{2 * (origin.x + cx) + sub, 2 * (origin.y + cy) + sub,
                          2 * (origin.z + cz) + sub};
            if (sd.speciesAt(p) != global.speciesAt(lattice_.wrap(p))) return false;
          }
  }
  return true;
}

}  // namespace tkmc
