#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace tkmc {

/// Deterministic, seeded fault-injection registry.
///
/// Production code marks *fault points* — named places where a failure
/// can be simulated — by calling faultFires("point"). Tests arm faults
/// on a FaultInjector and install it with a FaultScope; outside any
/// scope every fault point costs a null check and never fires, so the
/// simulation hot path pays nothing.
///
/// Firing is deterministic: each point draws from its own RNG stream
/// seeded from (injector seed, point name), so a run with a given seed
/// and arming always fails at the same hits, which makes failure-path
/// tests reproducible.
///
/// Thread safety: every method is mutex-guarded, so concurrently probed
/// points (the threaded execution backend's rank threads all pass
/// through SimComm::send) count hits and draw without data races. Note
/// that in the default *global-stream* mode the hit ordinals of a point
/// probed from several threads depend on scheduling, so armSchedule()
/// reproduces exactly only when the point is probed from one thread at
/// a time (or the run is sequential). For interleaving-independent
/// reproduction under the threaded backend, setChannelStreams(true)
/// switches keyed probes — faultFires(point, key), where SimComm passes
/// the (from, to, tag) channel key — to one deterministically derived
/// RNG stream and hit counter *per key*: which (channel, per-channel
/// ordinal) pairs fire is then a pure function of (seed, point, key),
/// independent of thread interleaving. In channel-stream mode schedule
/// ordinals are interpreted per key.
///
/// The registered fault points are enumerated by faultPointCatalog()
/// (printed by `tensorkmc --inject list`; see DESIGN.md "Fault
/// tolerance").
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed = 0);

  /// Arms `point` to fire independently with probability `p` per hit.
  void armProbability(const std::string& point, double probability);

  /// Arms `point` to fire exactly on the given 1-based hit ordinals
  /// (counted from the point's first-ever hit), once each. In
  /// channel-stream mode ordinals count per channel key instead.
  void armSchedule(const std::string& point, std::vector<std::uint64_t> hits);

  /// Arms `point` to fire on the given 1-based per-channel hit ordinals
  /// of one channel key only (channel-stream mode; SimComm's keys come
  /// from SimComm::channelKey). Lets a test fault one channel, say a
  /// fold or vote channel, while every other channel runs clean.
  void armChannelSchedule(const std::string& point, std::uint64_t key,
                          std::vector<std::uint64_t> hits);

  /// Arms `point` to fire on its next hit only.
  void armOnce(const std::string& point);

  void disarm(const std::string& point);
  void disarmAll();

  /// Forgets every point entirely: arming, hit/fire counters, *and* the
  /// per-point RNG streams, which re-derive from the injector seed on
  /// the next touch. disarm()/disarmAll() deliberately keep counters and
  /// RNG positions (so mid-run disarming does not shift later firing
  /// patterns), which means an injector reused across test cases carries
  /// stale stream state into the next case. Tests sharing a process call
  /// reset() between cases to get seed-fresh, order-independent firing.
  void reset();

  /// Per-channel deterministic streams for keyed probes (see class
  /// comment). Off by default: keyed probes then share the point's
  /// global stream and ordinal counter, bit-identical to the historical
  /// behaviour.
  void setChannelStreams(bool on);
  bool channelStreams() const;

  /// Registers a hit of `point`; true when the armed fault fires.
  /// Unarmed points count hits but never fire.
  bool shouldFire(const std::string& point);

  /// Keyed probe: in channel-stream mode, draws from the (point, key)
  /// stream; otherwise identical to shouldFire(point).
  bool shouldFire(const std::string& point, std::uint64_t key);

  std::uint64_t hitCount(const std::string& point) const;
  std::uint64_t fireCount(const std::string& point) const;

  /// How many times `point` actually fired (alias of fireCount(), named
  /// for test assertions: "this trigger went off N times").
  std::uint64_t triggerCount(const std::string& point) const {
    return fireCount(point);
  }

  /// One row per touched point, sorted by name — lets a test assert
  /// exactly which named points fired and how often.
  struct PointReport {
    std::string name;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
  };
  std::vector<PointReport> report() const;

  /// Names of the points that fired at least once, sorted.
  std::vector<std::string> firedPoints() const;

 private:
  struct KeyState {
    Rng rng{0};
    std::uint64_t hits = 0;
    std::set<std::uint64_t> schedule;  // this key's 1-based ordinals
  };

  struct Point {
    double probability = 0.0;
    std::set<std::uint64_t> schedule;  // 1-based hit ordinals
    Rng rng{0};
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    std::map<std::uint64_t, KeyState> keys;  // channel-stream mode only
  };

  Point& pointLocked(const std::string& name);
  KeyState& keyLocked(const std::string& name, Point& p, std::uint64_t key);
  bool fireLocked(Point& p);

  std::uint64_t seed_;
  bool channelStreams_ = false;
  mutable std::mutex mutex_;
  std::map<std::string, Point> points_;
};

/// Installs `injector` as the process-wide active injector for the
/// scope's lifetime and restores the previous one on destruction
/// (scopes nest). Tests arm faults without plumbing an injector through
/// every constructor.
class FaultScope {
 public:
  explicit FaultScope(FaultInjector& injector);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

 private:
  FaultInjector* previous_;
};

/// The active injector, or nullptr outside any FaultScope.
FaultInjector* activeFaultInjector();

/// Fault-point probe used by production code: counts a hit and returns
/// true when an armed fault fires; always false with no active injector.
bool faultFires(const char* point);

/// Keyed probe (channel-capable call sites pass a stable stream key;
/// SimComm uses channelKey(from, to, tag)). Identical to faultFires()
/// unless the active injector runs channel streams.
bool faultFires(const char* point, std::uint64_t key);

/// One registered fault-injection point: its arming name and the place
/// in the code that probes it.
struct FaultPointInfo {
  const char* name;
  const char* where;
};

/// The static catalog of every fault point production code probes,
/// sorted by name. New faultFires() call sites must add a row here —
/// `tensorkmc --inject list` and the chaos tooling enumerate points
/// through this table.
const std::vector<FaultPointInfo>& faultPointCatalog();

}  // namespace tkmc
