#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "parallel/decomposition.hpp"
#include "parallel/rank_team.hpp"
#include "parallel/sim_comm.hpp"
#include "parallel/subdomain.hpp"

namespace tkmc {

/// Staged ghost-region broadcast (paper Fig. 2a, grey regions).
///
/// Owned boundary slabs are exchanged one axis at a time (z, then y, then
/// x); each stage's slabs span the extended range of the axes already
/// completed, so corner and edge ghosts arrive without dedicated diagonal
/// messages. An axis decomposed across a single rank carries no ghost
/// shell (the subdomain spans its whole period) and its stage is
/// skipped, which makes flat rank grids such as 2x2x1 legal.
///
/// The exchange is incremental. Each slab payload is a 1-byte header
/// followed by either the full slab (packCellBox() bytes) or a change
/// list of (u32 offset in the send box, u8 species) pairs covering the
/// sites the sender's Subdomain recorded since the last exchange. A
/// rank sends full slabs when a resync is pending anywhere in the round
/// (construction, loadFrom(), rollback), when it received a full slab
/// earlier in this round, or when its change list would outweigh the
/// slab. Received changes join the receiver's change list, so later
/// stages forward them into edges and corners exactly as full slabs do.
/// A completed exchangeAll() clears every change list; the ghost values
/// it leaves are the ones a full-slab exchange would leave.
///
/// The driver is bulk-synchronous: sendSlabs() for every rank, then
/// receiveSlabs() for every rank, per axis, each half run through a
/// RankTeam (inline when none is supplied). On a threaded team every
/// send slab of an axis packs and posts concurrently, then every receive
/// unpacks concurrently. The barrier between the halves means receives
/// only ever write their *own* subdomain's ghost cells and change list
/// while no other thread touches them, so no per-site synchronization
/// is needed. Ranks marked fail-stop in the communicator are skipped on
/// both sides.
///
/// Each slab is received through SimComm::receiveReliable(), with the
/// unpack as its accept step: a CRC or sequence failure, or a malformed
/// payload, purges the channel and re-sends, on the sender's behalf, the
/// payload the sender buffered at send time — bit-identical to the
/// original, and free of cross-thread reads of the sender's live
/// species store. Up to maxAttempts() tries before the CommError
/// surfaces to the engine. retries() counts the absorbed failures. With
/// the communicator's heartbeat lease armed, a channel that stays silent
/// past the lease timeout raises RankFailure for the silent sender
/// instead of a retryable CommError.
class GhostExchange {
 public:
  GhostExchange(const Decomposition& decomp, SimComm& comm);

  /// Runs the full three-stage exchange across all subdomains
  /// (`domains[r]` belongs to rank r), retransmitting slabs whose frames
  /// fail message-integrity checks. Each half-stage runs one job per
  /// rank on `team`; nullptr runs them inline, in rank order.
  void exchangeAll(std::vector<Subdomain>& domains, RankTeam* team = nullptr);

  /// Bounds the delivery attempts per slab (>= 1).
  void setMaxAttempts(int attempts);
  int maxAttempts() const { return maxAttempts_; }

  /// Slab retransmissions after a detected integrity failure.
  std::uint64_t retries() const {
    return retries_.load(std::memory_order_relaxed);
  }

  /// Slabs sent in full (resync, forwarded full slab, or a change list
  /// larger than the slab).
  std::uint64_t resyncSlabs() const {
    return resyncSlabs_.load(std::memory_order_relaxed);
  }

  /// Change-list entries sent.
  std::uint64_t changeSites() const {
    return changeSites_.load(std::memory_order_relaxed);
  }

 private:
  // Axis: 0 = x, 1 = y, 2 = z (exchange order is 2, 1, 0).
  void sendSlabs(int rank, Subdomain& sd, int axis);
  void receiveSlabs(int rank, std::vector<Subdomain>& domains, int axis);

  // Outbound slab payload buffered at send time, indexed by
  // (rank, axis, direction); the ARQ resend source.
  std::vector<std::uint8_t>& slabBuffer(int rank, int axis, int dir);

  // Cell box (extended-frame coordinates) of the slab sent toward
  // direction `dir` (+1/-1) along `axis`, given which axes are complete.
  struct Box {
    Vec3i lo;
    Vec3i hi;
  };
  Box sendBox(const Subdomain& sd, int axis, int dir) const;
  Box recvBox(const Subdomain& sd, int axis, int dir) const;

  const Decomposition& decomp_;
  SimComm& comm_;
  int maxAttempts_ = 4;
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> resyncSlabs_{0};
  std::atomic<std::uint64_t> changeSites_{0};
  std::vector<std::vector<std::uint8_t>> slabBuffers_;  // rank x axis x dir
  // Per round: some live subdomain had a resync pending at the start.
  bool resyncRound_ = false;
  // Per rank, per round: a full slab arrived, so every later slab the
  // rank sends must be full too (its change list does not cover it).
  // Bytes, not vector<bool>: rank threads write neighbouring entries.
  std::vector<std::uint8_t> fullReceived_;
};

}  // namespace tkmc
