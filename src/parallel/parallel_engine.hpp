#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kmc/energy_model.hpp"
#include "kmc/event_catalog/event_catalog.hpp"
#include "kmc/rate_calculator.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/decomposition.hpp"
#include "parallel/remote_store.hpp"
#include "parallel/ghost_exchange.hpp"
#include "parallel/rank_team.hpp"
#include "parallel/sim_comm.hpp"
#include "parallel/subdomain.hpp"
#include "tabulation/cet.hpp"

namespace tkmc {

/// Ghost-shell width (unit cells) needed so every vacancy system of the
/// given CET can be gathered from a subdomain's extended frame.
int requiredGhostCells(const Cet& cet);

/// What each checkpoint epoch stores.
enum class CheckpointMode {
  kFull,   // every epoch is a self-contained full snapshot
  kDelta,  // epochs store only pages dirty since the previous epoch,
           // consolidating to a full epoch every maxDeltaChain links
};

/// Configuration of the parallel AKMC run.
struct ParallelConfig {
  double temperature = 573.0;
  double tStop = 2e-8;   // synchronization interval (paper Sec. 4.4)
  std::uint64_t seed = 99;
  Vec3i rankGrid{2, 2, 2};

  // Event catalog selection (deck key `event_catalog` + trap/detrap
  // parameters). The engine owns the catalog it builds from this spec;
  // the name is recorded in every checkpoint manifest and validated on
  // resume — a trajectory is only meaningful under the catalog that
  // produced it.
  EventCatalogSpec catalog;

  // Execution backend. Every per-rank phase (sector windows, fold
  // serialize/send/receive/apply, per-axis ghost halves) runs through the
  // engine's RankTeam. false: an inline team drives the ranks in rank
  // order on the caller's thread. true: one OS thread per rank runs each
  // phase concurrently, with a barrier between phases. The
  // bulk-synchronous schedule, per-rank RNG streams, and rank-ordered
  // reductions make a fault-free threaded trajectory bit-identical to
  // the inline one for the same deck + seed.
  bool threaded = false;

  // Fault tolerance. With recovery enabled the engine snapshots its
  // state (subdomains + RNG streams + clocks) at each sync boundary and,
  // when a cycle trips a comm-integrity failure or an invariant monitor,
  // rolls back and replays the cycle. Disarmed fault injection makes the
  // recovery path free of side effects: trajectories are bit-identical
  // with recovery on or off.
  bool enableRecovery = true;
  int maxReplays = 3;       // replays per cycle before the error surfaces
  int commMaxAttempts = 4;  // per-message delivery attempts (ghost + fold)
  int invariantCadence = 0; // full ghost-consistency sweep every N cycles
                            // (0 = off; vacancy conservation and
                            // propensity sanity are always monitored)

  // Rank fail-stop tolerance. A non-empty checkpointDir arms coordinated
  // sharded checkpointing: every checkpointCadence cycles each rank
  // stages its subdomain as a shard and the epoch is committed
  // atomically behind a commit-vote barrier. heartbeatTimeoutMs > 0 arms
  // the lease-based failure detector in SimComm: a rank that stays
  // silent past its lease is declared failed, a typed RankFailure
  // surfaces, and the engine shrink-recovers from the newest complete
  // epoch on a reduced rank grid. Both are off by default.
  std::string checkpointDir;
  int checkpointCadence = 1;       // cycles per epoch (with a dir set)
  double heartbeatIntervalMs = 5.0;
  double heartbeatTimeoutMs = 0.0; // 0 = fail-stop detection off

  // Incremental checkpointing. In kDelta mode an epoch stores, per rank,
  // only the occupation pages (SpeciesStore page geometry) that changed
  // since the previous committed epoch, plus the full RNG state and
  // vacancy order; the manifest records the base-epoch chain link. A
  // full consolidating epoch is written whenever a chain would exceed
  // maxDeltaChain links, after which superseded deltas are GC'd.
  CheckpointMode checkpointMode = CheckpointMode::kFull;
  int maxDeltaChain = 8;  // delta links per chain before consolidation

  // Elastic recovery. After a detected fail-stop the engine first tries
  // to re-admit replacement ranks from this spare pool: with enough
  // spares the checkpoint epoch's rank grid is kept (growRankGrid) and
  // capacity holds; otherwise the grid shrinks to fit survivors plus
  // whatever spares remain. The pool is consumed across recoveries.
  int spareRanks = 0;

  // Remote shard streaming (node-loss tolerance). A non-empty remoteDir
  // arms a ShardStreamer: every committed epoch is copied in the
  // background to a RemoteShardStore (a second directory tree today) and
  // recovery can pull an epoch whose local shards died with their node.
  // remoteRateMbps caps the copy bandwidth in MB/s (0 = unthrottled).
  // When the streamer falls more than remoteMaxLagEpochs epochs behind,
  // the commit path throttles (a bounded wait for the queue to drain)
  // instead of dropping epochs; a dead remote can still never wedge a
  // commit because each epoch gives up after remoteRetries put attempts
  // per object (capped exponential backoff + jitter between attempts).
  std::string remoteDir;
  double remoteRateMbps = 0.0;
  int remoteMaxLagEpochs = 8;
  int remoteRetries = 5;
};

/// Counters of absorbed failures (engine stats).
struct RecoveryStats {
  std::uint64_t rollbacks = 0;       // cycles rolled back and replayed
  std::uint64_t invariantTrips = 0;  // invariant-monitor failures observed
  std::uint64_t commErrors = 0;      // comm failures that reached the engine
  std::uint64_t ghostRetries = 0;    // retransmissions inside GhostExchange
  std::uint64_t foldRetries = 0;     // retransmissions of fold frames and
                                     // of commit votes and acks
  std::uint64_t rankFailures = 0;    // fail-stops detected and survived
  std::uint64_t epochsRolledBack = 0; // cycles re-run due to shrink recovery
  std::uint64_t growRecoveries = 0;  // recoveries that re-admitted spare ranks
};

/// Deterministic master seed of the per-rank RNG streams after a resume
/// onto a rank grid different from the one that wrote the epoch. The
/// dead rank's stream state is unrecoverable and the survivor streams
/// cannot be remapped onto a different grid, so the streams are reseeded
/// from a pure function of (original seed, epoch, new grid): the
/// in-engine shrink recovery and a fresh engine resumed from the same
/// epoch onto the same grid derive identical streams, which keeps the
/// post-recovery trajectory bit-reproducible.
std::uint64_t recoverySeed(std::uint64_t seed, std::uint64_t epoch,
                           Vec3i rankGrid);

/// Parallel AKMC with the Shim-Amar synchronous sublattice schedule
/// (paper Sec. 2.2, Fig. 2b) on the in-process message-passing runtime.
///
/// Each cycle: every rank evolves the vacancies of the active sector
/// (one of the eight octants of its subdomain, rotating per cycle) for a
/// window of t_stop; boundary modifications are folded back to their
/// owners; ghost shells are re-broadcast. Sector geometry guarantees that
/// concurrently active regions of different ranks are farther apart than
/// the interaction range, so no hops can conflict.
///
/// Fail-stop tolerance (config.checkpointDir + heartbeatTimeoutMs): when
/// a RankFailure surfaces from a fold, ghost, or commit-barrier receive,
/// the survivors agree on the newest complete checkpoint epoch and first
/// try to *grow* back: with spare ranks available (config.spareRanks)
/// replacements are admitted and the epoch's rank grid is kept
/// (growRankGrid); otherwise the grid deterministically shrinks to fit
/// survivors plus remaining spares (shrinkRankGrid). Either way the
/// decomposition/comm/exchange fabric is rebuilt and the epoch's shards
/// are redistributed. On the epoch's own grid the shard RNG streams and
/// vacancy orders are restored exactly; on a different grid the streams
/// reseed via recoverySeed(). Both paths resume bit-identically to a
/// fresh engine resumed from the same epoch on the same grid.
class ParallelEngine {
 public:
  /// `model` must support VET evaluation. `initial` provides the global
  /// box and starting occupation.
  ParallelEngine(const LatticeState& initial, EnergyModel& model,
                 const Cet& cet, ParallelConfig config);

  /// Resumes from a committed checkpoint epoch. `config.rankGrid` equal
  /// to the manifest's grid restores the shard RNG streams and vacancy
  /// orders (bit-exact continuation of the original run); a different
  /// grid reseeds via recoverySeed() — the same state an in-engine
  /// shrink recovery of that epoch produces. `config.tStop` must match
  /// the manifest (trajectories are tStop-dependent); the manifest's
  /// seed overrides `config.seed`.
  ParallelEngine(EnergyModel& model, const Cet& cet, ParallelConfig config,
                 const CheckpointStore& store, std::uint64_t epoch);

  /// Drains the remote shard streamer (bounded — streamed epochs that
  /// keep failing give up), so a clean shutdown leaves the remote
  /// mirror complete.
  ~ParallelEngine();

  /// Executes one sector window plus synchronization. With recovery
  /// enabled, a cycle that trips an injected fault or an invariant
  /// monitor is rolled back to the last sync boundary and replayed (up
  /// to `maxReplays` times) before the typed error surfaces; a detected
  /// rank fail-stop triggers shrink recovery instead (RankFailure
  /// surfaces only when no complete epoch exists or checkpointing is
  /// off).
  void runCycle();

  /// Runs whole cycles until the simulated time reaches tEnd.
  void run(double tEnd);

  double time() const { return time_; }
  std::uint64_t cycles() const { return cycles_; }
  std::uint64_t totalEvents() const { return events_; }
  std::uint64_t discardedEvents() const { return discarded_; }
  const EventCatalog& catalog() const { return *catalog_; }
  /// Committed events per catalog event type (index = type id), summed
  /// across ranks in rank order at each sync boundary.
  const std::vector<std::uint64_t>& eventsByType() const {
    return eventsByType_;
  }
  int rankCount() const { return fabric_->decomp.rankCount(); }
  Vec3i rankGrid() const { return fabric_->decomp.rankGrid(); }
  const SimComm& comm() const { return fabric_->comm; }
  /// Mutable comm access (fault drills: killRank, lease tuning).
  SimComm& mutableComm() { return fabric_->comm; }
  const Subdomain& subdomain(int rank) const {
    return domains_[static_cast<std::size_t>(rank)];
  }

  /// Total owned vacancies across ranks (conservation checks).
  std::int64_t vacancyCount() const;

  /// Reassembles the full lattice from the owned regions.
  LatticeState assembleGlobalState() const;

  /// True when every ghost site matches its owner's value (test hook).
  bool ghostsConsistent() const;

  /// Absorbed-failure counters (rollbacks, invariant trips, retries).
  RecoveryStats recoveryStats() const;

  /// The checkpoint store, or nullptr when checkpointing is off.
  const CheckpointStore* checkpointStore() const { return store_.get(); }

  /// The remote shard streamer, or nullptr when remoteDir is empty.
  const ShardStreamer* shardStreamer() const { return streamer_.get(); }

  /// Epoch the last shrink recovery resumed from (0 before any).
  std::uint64_t lastRecoveryEpoch() const { return lastRecoveryEpoch_; }

  /// Replacement ranks still available for grow recovery.
  int spareRanksRemaining() const { return sparePool_; }

  /// Publishes engine progress, recovery counters, and comm statistics
  /// as gauges in the global telemetry registry. Called automatically at
  /// the end of every runCycle() while telemetry is enabled; exposed so
  /// drivers can force a final snapshot.
  void publishTelemetry() const;

 private:
  struct Change {
    Vec3i site;  // wrapped global coordinate
    Species species;
  };

  /// What the last committed epoch looked like, for delta diffing. Must
  /// roll back with the cycle snapshot: a replayed cycle recommits its
  /// epoch, and the diff has to run against the epoch *before* it — a
  /// baseline of the epoch itself would emit an empty self-delta.
  struct DeltaBaseline {
    bool valid = false;          // false => next epoch is a full snapshot
    std::uint64_t epoch = 0;
    std::uint32_t manifestCrc = 0;  // chain pin for the next delta child
    int chainDepth = 0;          // delta links since the last full epoch
    Vec3i rankGrid{};
    std::vector<std::vector<std::uint32_t>> pageHashes;  // per rank; delta mode
  };

  struct Snapshot {
    std::vector<Subdomain> domains;
    std::vector<std::array<std::uint64_t, 4>> rngStates;
    double time = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    std::uint64_t discarded = 0;
    std::vector<std::uint64_t> eventsByType;
    DeltaBaseline baseline;
  };

  /// The rebuildable communication fabric and the rank team that runs
  /// every per-rank phase. Shrink recovery replaces the whole bundle at
  /// once: GhostExchange holds references into its sibling members, and
  /// the team's size tracks the rank count, so the four live and die
  /// together.
  struct Fabric {
    Decomposition decomp;
    SimComm comm;
    GhostExchange exchange;
    RankTeam team;
    Fabric(Vec3i globalCells, Vec3i rankGrid, bool threaded)
        : decomp(globalCells, rankGrid), comm(decomp.rankCount()),
          exchange(decomp, comm), team(decomp.rankCount(), threaded) {}
  };

  /// Builds fabric + empty domains for config_.rankGrid, validates
  /// sector geometry, arms the lease, and loads `initial` into every
  /// rank's subdomain (deterministic vacancy scan order).
  void buildFabric(const LatticeState& initial);
  void executeCycle();
  void verifyInvariants();
  void takeSnapshot();
  void restoreSnapshot();
  void runSector(int rank, int sector);
  void foldChanges();
  /// Stages every rank's shard, runs the commit-vote barrier, and
  /// atomically publishes epoch `cycles_`. `barrier` is false only for
  /// the construction-time epoch (single-threaded, nothing in flight).
  void writeEpoch(bool barrier);
  /// Opens the checkpoint store when checkpointDir is set — with the
  /// remote mirror and its streamer when remoteDir is set too — and runs
  /// the startup GC. Returns false when checkpointing is off. Called from
  /// both constructors.
  bool openStore();
  /// The one epoch-restore step, shared by the resume constructor and
  /// rank-failure recovery: reassembles the epoch's lattice, rebuilds
  /// the fabric on config_.rankGrid, restores the shard RNG streams and
  /// vacancy orders (same grid) or reseeds via recoverySeed() (any other
  /// grid), sets the clocks, and drops the delta baseline.
  void adoptEpoch(const EpochManifest& manifest,
                  const std::vector<ShardRecord>& shards);
  /// Post-commit hook: queues the epoch for streaming, publishes the
  /// remote-lag gauge, and throttles (bounded) past the lag cap.
  void afterCommit(std::uint64_t epoch);
  ShardRecord makeShard(int rank) const;
  void commitVoteBarrier(std::uint64_t epoch);
  void recoverFromRankFailure(const RankFailure& failure);
  Vec3i localCell(int rank, Vec3i wrappedCoord) const;
  bool inSector(int rank, Vec3i wrappedCoord, int sector) const;

  BccLattice lattice_;
  const Cet& cet_;
  EnergyModel& model_;
  ParallelConfig config_;
  std::unique_ptr<EventCatalog> catalog_;
  std::unique_ptr<Fabric> fabric_;
  std::unique_ptr<CheckpointStore> store_;
  std::shared_ptr<RemoteShardStore> remote_;
  std::unique_ptr<ShardStreamer> streamer_;
  std::vector<Subdomain> domains_;
  std::vector<Rng> rngs_;
  std::vector<std::vector<Change>> pendingChanges_;  // per rank, this cycle
  // Serializes propensity batches through backends whose evaluation is
  // not safe to call from several rank threads at once (threaded team
  // only).
  std::mutex modelMutex_;
  // Per-rank per-cycle counters, summed into events_/discarded_ in rank
  // order at the sync boundary — identical totals to the historical
  // shared increments, but free of cross-thread races.
  std::vector<std::uint64_t> cycleEvents_;
  std::vector<std::uint64_t> cycleDiscarded_;
  std::vector<std::vector<std::uint64_t>> cycleEventsByType_;  // [rank][type]
  std::vector<std::uint64_t> eventsByType_;  // lifetime, rank-order summed
  std::vector<std::string> eventTypeMetricNames_;  // engine.events.by_type.*
  // Per-rank lifetime event ordinal for blackbox kKmcEvent records (a
  // global ordinal would depend on thread interleaving).
  std::vector<std::uint64_t> rankEventOrdinals_;
  std::atomic<std::uint64_t> foldRetries_{0};
  double time_ = 0.0;
  std::uint64_t cycles_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t discarded_ = 0;
  std::int64_t expectedVacancies_ = 0;  // conservation monitor baseline
  std::uint64_t lastRecoveryEpoch_ = 0;
  int sparePool_ = 0;  // replacement ranks not yet consumed by recoveries
  DeltaBaseline baseline_;
  Snapshot snapshot_;
  RecoveryStats recovery_;
};

}  // namespace tkmc
