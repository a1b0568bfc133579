#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "parallel/heartbeat.hpp"

namespace tkmc {

/// In-process message-passing runtime standing in for swmpi.
///
/// Ranks are driven in bulk-synchronous phases by the engine — either
/// sequentially (the in-process backend) or by one OS thread per rank
/// (the threaded backend, ParallelConfig::threaded). Communication is
/// mailbox-based: a phase posts sends, the next phase receives.
/// Messages between a (source, destination, tag) triple are FIFO. Byte
/// and message counters feed the scaling model's communication
/// calibration.
///
/// Thread safety: every public method is safe to call concurrently —
/// one mutex orders all mailbox, sequence, liveness, and lease state.
/// The engine's phase barriers guarantee each channel still has exactly
/// one sender and one receiver *within* a phase, so per-channel FIFO
/// and sequence-number semantics are identical to the sequential
/// runtime; the mutex only arbitrates different channels touching the
/// shared maps at once and makes the counters race-free.
///
/// Every message is framed with a per-channel sequence number and a
/// CRC32 of the payload, so the receive side detects the three classic
/// link failures instead of silently delivering bad data:
///   - corruption: the CRC check fails -> CommError;
///   - loss: a sequence gap (or an empty mailbox) -> CommError;
///   - duplication: an already-delivered sequence number is discarded
///     silently and counted in duplicatesDropped().
/// The fault points "comm.drop", "comm.corrupt", and "comm.duplicate"
/// (see common/fault_injection.hpp) inject exactly those failures at
/// send time; each probe passes the channel key (from, to, tag), so an
/// injector in channel-stream mode fires independently per channel and
/// a seeded chaos run reproduces identically regardless of thread
/// interleaving. Every retransmitting receive (fold, commit vote/ack,
/// ghost slabs) goes through receiveReliable(), which purges the failed
/// channel before re-sending; the engine's cycle rollback calls
/// resetAllChannels(). Stale frames and sequence state therefore cannot
/// leak across attempts.
///
/// Fail-stop ranks: the fault point "comm.rank_kill" fires at send time
/// and kills the *sending* rank before the frame leaves — modelling a
/// process crash. A dead rank's sends silently no-op from then on, so
/// its peers see nothing but silence. With a lease armed (setLease()),
/// every live send doubles as a heartbeat; a receiver stuck on an empty
/// channel calls pollPeer(), which advances the logical clock one poll
/// interval and classifies the sender as alive, merely silent, or
/// fail-stop once its lease expires. With no lease armed (the default)
/// none of this machinery is consulted and behaviour is identical to
/// the transient-fault-only runtime.
class SimComm {
 public:
  explicit SimComm(int ranks);

  int rankCount() const { return ranks_; }

  /// Stable 64-bit key of a (from, to, tag) channel; the fault-probe
  /// key SimComm passes to faultFires() so channel-stream injectors
  /// derive one deterministic RNG stream per channel.
  static std::uint64_t channelKey(int from, int to, int tag);

  /// Posts a message. Payload bytes are owned by the mailbox until
  /// received.
  void send(int from, int to, int tag, std::vector<std::uint8_t> payload);

  /// Pops the oldest message matching (from -> to, tag). Throws
  /// CommError when none is pending, when the frame fails its CRC
  /// check, or when a sequence gap shows an earlier message was lost.
  std::vector<std::uint8_t> receive(int to, int from, int tag);

  /// Validates (and may apply) a received payload; throws CommError on a
  /// malformed one, which receiveReliable() then retransmits.
  using Accept = std::function<void(const std::vector<std::uint8_t>&)>;

  /// Lease-aware ARQ receive of one (from -> to, tag) message, the one
  /// retransmission path of the fold, commit vote/ack and ghost-slab
  /// channels. When receive() or `accept` throws CommError, it purges
  /// the channel, then:
  ///   - with a lease armed, polls the sender: an expired lease throws
  ///     RankFailure "rank <from> fail-stop: <what> lease expired on tag
  ///     <tag>" (after a kLeaseExpired blackbox record), and a merely
  ///     silent sender is polled again without the attempt bound;
  ///   - rethrows the CommError after `maxAttempts` failures;
  ///   - otherwise, unless the sender is already dead (its resend would
///     do nothing), counts one retry in `retries` and re-sends `resend`,
  ///     the copy the sender buffered at send time, on its behalf.
  /// `retries` is atomic because receives of different ranks run
  /// concurrently on a threaded team. Returns the accepted payload.
  std::vector<std::uint8_t> receiveReliable(
      int to, int from, int tag, const std::vector<std::uint8_t>& resend,
      int maxAttempts, std::atomic<std::uint64_t>& retries, const char* what,
      const Accept& accept = {});

  /// True when a matching (not yet delivered, non-duplicate) message is
  /// pending.
  bool hasMessage(int to, int from, int tag) const;

  /// Number of pending messages addressed to `to` with `tag`, any source.
  int pendingCount(int to, int tag) const;

  /// Drains every pending (from -> to, tag) message in source order.
  std::vector<std::pair<int, std::vector<std::uint8_t>>> receiveAll(int to,
                                                                    int tag);

  /// Clears pending messages and sequence tracking for one
  /// (from -> to, tag) channel, so a retransmission protocol (ARQ) can
  /// re-send a single failed message with a fresh sequence number.
  void resetChannel(int from, int to, int tag);

  /// Clears pending messages and sequence tracking for tags in
  /// [tagLo, tagHi). Retry protocols re-send a whole phase from scratch.
  void resetChannels(int tagLo, int tagHi);

  /// Clears every mailbox and all sequence tracking (cycle rollback).
  void resetAllChannels();

  // --- Fail-stop liveness and the heartbeat/lease protocol ---

  /// Marks `rank` as permanently failed. Its future sends no-op (and no
  /// longer renew its lease); messages already in flight stay
  /// deliverable. Invoked by the "comm.rank_kill" fault point and by the
  /// detector when a lease expires.
  void killRank(int rank);

  bool rankAlive(int rank) const;
  int aliveCount() const;
  std::vector<int> aliveRanks() const;

  /// Arms the heartbeat/lease protocol: every live send renews the
  /// sender's lease, pollPeer() advances the clock by `intervalMs` per
  /// poll, and a lease older than `timeoutMs` classifies its rank as
  /// fail-stop. `timeoutMs <= 0` disarms the protocol (the default).
  void setLease(double intervalMs, double timeoutMs);
  bool leaseEnabled() const { return leaseTimeoutMs_ > 0.0; }
  double leaseIntervalMs() const { return leaseIntervalMs_; }
  double leaseTimeoutMs() const { return leaseTimeoutMs_; }

  /// Logical clock (milliseconds). Advances only via tick()/pollPeer(),
  /// so detection latency is deterministic.
  double nowMs() const;
  void tick(double ms);

  /// Last lease renewal of `rank` (logical ms; 0 until its first send).
  double lastBeatMs(int rank) const;

  enum class PeerVerdict {
    kAlive,   // renewed its lease since the receiver started waiting
    kSilent,  // no renewal yet, but the lease has not expired either
    kFailed,  // lease expired: the rank is now marked fail-stop
  };

  /// One detector poll while waiting on a message from `from`: advances
  /// the clock one poll interval and classifies the sender.
  /// `waitStartMs` is the clock value when the receiver began waiting
  /// (so a retransmission that got through counts as proof of life).
  /// Requires an armed lease.
  PeerVerdict pollPeer(int from, double waitStartMs);

  std::uint64_t totalBytesSent() const;
  std::uint64_t totalMessagesSent() const;
  /// Frames rejected because the payload CRC did not match.
  std::uint64_t crcFailures() const;
  /// Frames discarded because their sequence number was already
  /// delivered (duplicate detection).
  std::uint64_t duplicatesDropped() const;
  void resetStats();

 private:
  struct Key {
    int from;
    int to;
    int tag;
    bool operator<(const Key& o) const {
      if (from != o.from) return from < o.from;
      if (to != o.to) return to < o.to;
      return tag < o.tag;
    }
  };

  struct Frame {
    std::uint64_t seq = 0;
    std::uint32_t crc = 0;
    // Sender's Lamport stamp at send time. The receive side folds it into
    // its own clock (lamportObserve), so per-rank flight-recorder dumps
    // merge into a causally ordered timeline; it doubles as the flow id
    // binding send/recv trace events (globally unique, unlike seq, which
    // resets per channel on ARQ retries).
    std::uint64_t lamport = 0;
    std::vector<std::uint8_t> payload;
  };

  // Unlocked internals; callers hold mutex_.
  std::uint64_t expectedSeqLocked(const Key& key) const;
  bool hasMessageLocked(const Key& key) const;
  std::vector<std::uint8_t> receiveLocked(int to, int from, int tag);
  void killRankLocked(int rank);

  int ranks_;
  mutable std::mutex mutex_;
  std::map<Key, std::deque<Frame>> mailboxes_;
  std::map<Key, std::uint64_t> nextSendSeq_;
  std::map<Key, std::uint64_t> nextRecvSeq_;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t crcFailures_ = 0;
  std::uint64_t duplicatesDropped_ = 0;
  std::vector<bool> alive_;
  HeartbeatMonitor beats_;
  double nowMs_ = 0.0;
  double leaseIntervalMs_ = 5.0;
  double leaseTimeoutMs_ = 0.0;  // <= 0: heartbeat protocol disarmed
};

}  // namespace tkmc
