#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.hpp"

namespace tkmc {

/// Narrow object-store-shaped interface for a secondary copy of
/// committed checkpoint epochs. Objects are addressed by an epoch
/// directory name ("epoch_<N>") plus a file name within it — exactly
/// the layout CheckpointStore commits locally, so a remote epoch is a
/// verbatim mirror. Today the only implementation is a separate
/// directory tree (DirRemoteStore); an object store (S3-style
/// put/get/list/stat) can implement the same five calls later.
///
/// put/get throw IoError on failure; list degrades to empty.
class RemoteShardStore {
 public:
  struct Stat {
    std::uint64_t bytes = 0;
  };

  virtual ~RemoteShardStore() = default;

  /// Stores `contents` at <epochDir>/<file>, overwriting atomically.
  virtual void put(const std::string& epochDir, const std::string& file,
                   const std::string& contents) = 0;

  /// Fetches <epochDir>/<file>; throws IoError when absent or unreadable.
  virtual std::string get(const std::string& epochDir,
                          const std::string& file) const = 0;

  /// Epoch directory names present remotely (complete or in flight).
  virtual std::vector<std::string> listEpochs() const = 0;

  /// Size of a remote object, or nullopt when absent.
  virtual std::optional<Stat> stat(const std::string& epochDir,
                                   const std::string& file) const = 0;

  /// Human-readable location for log lines and placement rows.
  virtual std::string describe() const = 0;
};

/// Directory-tree remote store: <root>/epoch_<N>/<file>. Probes the
/// remote.* fault points so chaos runs can exercise the streamer's
/// retry/give-up paths and recovery's torn-copy fallback:
///   remote.put_fail  — put throws IoError (after possibly staging)
///   remote.torn_copy — put silently writes only half the bytes
///   remote.slow      — put stalls ~10 ms (drives remote lag)
///   remote.get_fail  — get throws IoError
class DirRemoteStore : public RemoteShardStore {
 public:
  explicit DirRemoteStore(std::string root);

  void put(const std::string& epochDir, const std::string& file,
           const std::string& contents) override;
  std::string get(const std::string& epochDir,
                  const std::string& file) const override;
  std::vector<std::string> listEpochs() const override;
  std::optional<Stat> stat(const std::string& epochDir,
                           const std::string& file) const override;
  std::string describe() const override { return root_; }

 private:
  std::string root_;
};

/// Name of the per-epoch placement map object (manifest v3 sidecar).
/// Written LAST by the streamer, so its presence is the remote commit
/// point: an epoch directory without a valid placement map is half
/// streamed and recovery must fall back to an older epoch.
inline constexpr const char* kPlacementFile = "placement.tkp";

/// Placement map: which files make up a remote epoch, each pinned by
/// full-contents CRC32 + byte count, plus where the copy lives. The
/// serialized form carries the same "\ncrc32 <hex>\n" footer as shards
/// and manifests, so a torn placement map is itself detectable.
struct PlacementMap {
  struct Row {
    std::string file;
    std::uint32_t crc = 0;
    std::uint64_t bytes = 0;
    std::string location;
  };
  std::uint64_t epoch = 0;
  std::vector<Row> rows;
};

/// Serializes a placement map ("tensorkmc-placement 3" + rows + CRC
/// footer).
std::string encodePlacement(const PlacementMap& map);

/// Parses and CRC-verifies a serialized placement map; `what` names the
/// source in IoError messages.
PlacementMap parsePlacement(const std::string& contents,
                            const std::string& what);

/// Background copier: streams committed local epochs into a
/// RemoteShardStore without blocking the commit path. One worker thread
/// drains a queue of epoch numbers; per epoch it copies every shard,
/// then the manifest, then writes the placement map as the remote
/// commit marker. Each object put runs under a RetrySchedule (capped
/// exponential backoff + jitter); when one object exhausts its attempts
/// the whole epoch is given up (counted, never retried) so a dead
/// remote degrades to a bounded amount of wasted work instead of a
/// wedged queue. An optional rate cap (MB/s) paces the copies.
class ShardStreamer {
 public:
  struct Config {
    double rateMbps = 0.0;  // copy bandwidth cap; 0 = unthrottled
    RetryPolicy retry;      // per-object put attempts/backoff
    std::uint64_t jitterSeed = 0;
  };

  ShardStreamer(std::string localDir, std::shared_ptr<RemoteShardStore> remote,
                Config config);
  ~ShardStreamer();  // stops the worker; call drain() first for a flush

  ShardStreamer(const ShardStreamer&) = delete;
  ShardStreamer& operator=(const ShardStreamer&) = delete;

  /// Queues a committed epoch for streaming. Non-blocking.
  void enqueue(std::uint64_t epoch);

  /// Epochs enqueued but not yet streamed (queue depth + in-flight).
  int lagEpochs() const;

  /// Blocks until lagEpochs() <= maxLag or timeoutMs elapses; returns
  /// the final lag. Used by the commit path to throttle when the
  /// remote falls behind the configured cap — bounded, so a dead
  /// remote (whose epochs give up) can never wedge a commit.
  int waitForLag(int maxLag, double timeoutMs) const;

  /// Blocks until the queue is empty and the worker idle (or timeout);
  /// true when fully drained. Called on engine shutdown so a clean
  /// exit leaves the remote mirror complete.
  bool drain(double timeoutMs = 120000.0) const;

  std::uint64_t epochsStreamed() const;
  std::uint64_t retries() const;
  std::uint64_t gaveUp() const;

 private:
  void threadMain();
  bool streamEpoch(std::uint64_t epoch);

  std::string localDir_;
  std::shared_ptr<RemoteShardStore> remote_;
  Config config_;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::deque<std::uint64_t> queue_;
  bool inFlight_ = false;
  bool stop_ = false;
  std::uint64_t streamed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t gaveUp_ = 0;
  std::uint64_t jitterEpochSalt_ = 0;
  std::thread worker_;
};

}  // namespace tkmc
