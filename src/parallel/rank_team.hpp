#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tkmc {

/// The one executor of every per-rank phase.
///
/// The engine decomposes each cycle into bulk-synchronous phases
/// (sector windows, fold serialize/send/receive/apply, per-axis ghost
/// send/receive) and hands each to run(), which calls job(rank) for
/// every rank and returns once all have finished. A team is either:
///   - inline (threaded = false): no threads; job(0), ..., job(size()-1)
///     run on the caller's thread in rank order — the in-process driver,
///     whose order the goldens pin; or
///   - threaded: one OS thread per rank, created once and parked between
///     phases (condvar), so a cycle costs wake-ups, not spawns. run() is
///     a barrier, so a phase never observes another phase's writes
///     mid-flight, and the cross-phase handoffs (outbound fold buffers,
///     packed ghost slabs) are ordered by the pool's mutex.
///
/// Exceptions: both surface the *lowest failing rank's* exception —
/// inline, the first throw stops the phase; threaded, every throw is
/// captured and the lowest rank's is rethrown after the barrier,
/// independent of scheduling. Discarding the others is safe because
/// every engine error path (CommError, InvariantError, RankFailure)
/// rolls the whole cycle back to the last sync boundary anyway.
class RankTeam {
 public:
  /// A threaded team: one OS thread per rank.
  explicit RankTeam(int ranks) : RankTeam(ranks, /*threaded=*/true) {}
  RankTeam(int ranks, bool threaded);
  ~RankTeam();

  RankTeam(const RankTeam&) = delete;
  RankTeam& operator=(const RankTeam&) = delete;

  int size() const { return ranks_; }
  bool threaded() const { return !threads_.empty(); }

  /// Runs job(rank) for every rank and returns once all have finished.
  /// Rethrows the lowest failing rank's exception, if any.
  void run(const std::function<void(int)>& job);

 private:
  void workerLoop(int rank);

  int ranks_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(int)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int remaining_ = 0;
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
};

}  // namespace tkmc
