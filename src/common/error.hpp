#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace tkmc {

/// Error thrown for violated preconditions and invariants.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Filesystem and serialization failures: missing files, bad magic or
/// version, truncated bodies, CRC mismatches. Usually recoverable by
/// degrading to a backup replica (see loadCheckpointWithFallback()).
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// Message-passing integrity failures: lost, corrupted, or mis-sequenced
/// messages. Recoverable by retrying the exchange (GhostExchange) or
/// rolling back and replaying the cycle (ParallelEngine).
class CommError : public Error {
 public:
  explicit CommError(const std::string& what) : Error(what) {}
};

/// Violated physics or resource invariants: vacancy conservation, ghost
/// consistency, propensity-sum sanity, scratchpad overflow. Signals that
/// in-memory state can no longer be trusted; the parallel engine reacts
/// by restoring its cycle snapshot.
class InvariantError : public Error {
 public:
  explicit InvariantError(const std::string& what) : Error(what) {}
};

/// A peer rank classified as permanently failed (fail-stop) by the
/// heartbeat/lease detector: its lease expired while a receiver was
/// waiting on one of its messages. Unlike CommError this is not
/// retryable — the rank is gone — so the parallel engine reacts with
/// shrink-recovery from the newest complete checkpoint epoch instead of
/// rollback/replay.
class RankFailure : public Error {
 public:
  RankFailure(int rank, double detectMs, const std::string& what)
      : Error(what), rank_(rank), detectMs_(detectMs) {}

  /// The rank declared dead.
  int rank() const { return rank_; }

  /// Logical milliseconds between the last lease renewal and the
  /// detector declaring the rank dead (detector latency).
  double detectMs() const { return detectMs_; }

 private:
  int rank_;
  double detectMs_;
};

namespace detail {

[[noreturn]] inline void failRequire(const char* message,
                                     const std::source_location& loc) {
  throw Error(std::string(loc.file_name()) + ":" +
              std::to_string(loc.line()) + ": " + message);
}

}  // namespace detail

/// Throws tkmc::Error when `condition` is false. Used at API boundaries;
/// hot loops rely on asserts instead. The `const char*` overload keeps a
/// literal message from being copied into a std::string on the success
/// path; a message that needs formatting should be built only once the
/// check has failed.
inline void require(bool condition, const char* message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::failRequire(message, loc);
}

inline void require(bool condition, const std::string& message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] detail::failRequire(message.c_str(), loc);
}

}  // namespace tkmc
