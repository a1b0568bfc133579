#include "common/fault_injection.hpp"

#include <atomic>

#include "common/error.hpp"
#include "common/telemetry/flight_recorder.hpp"

namespace tkmc {
namespace {

// Atomic so a FaultScope installed on one thread is visible (or cleanly
// absent) to rank threads probing concurrently — never a torn pointer.
std::atomic<FaultInjector*> g_active{nullptr};

std::uint64_t hashName(const std::string& name) {
  // FNV-1a; only needs to decorrelate per-point RNG streams.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FaultInjector::FaultInjector(std::uint64_t seed) : seed_(seed) {}

FaultInjector::Point& FaultInjector::pointLocked(const std::string& name) {
  auto it = points_.find(name);
  if (it == points_.end()) {
    Point p;
    p.rng = Rng(SplitMix64(seed_ ^ hashName(name)).next());
    it = points_.emplace(name, std::move(p)).first;
  }
  return it->second;
}

FaultInjector::KeyState& FaultInjector::keyLocked(const std::string& name,
                                                  Point& p,
                                                  std::uint64_t key) {
  auto it = p.keys.find(key);
  if (it == p.keys.end()) {
    KeyState ks;
    const std::uint64_t pointSeed = SplitMix64(seed_ ^ hashName(name)).next();
    ks.rng = Rng(SplitMix64(pointSeed ^ (key * 0x9E3779B97F4A7C15ULL)).next());
    it = p.keys.emplace(key, std::move(ks)).first;
  }
  return it->second;
}

void FaultInjector::armProbability(const std::string& name,
                                   double probability) {
  require(probability >= 0.0 && probability <= 1.0,
          "fault probability must be in [0, 1]");
  std::lock_guard<std::mutex> lock(mutex_);
  pointLocked(name).probability = probability;
}

void FaultInjector::armSchedule(const std::string& name,
                                std::vector<std::uint64_t> hits) {
  std::lock_guard<std::mutex> lock(mutex_);
  Point& p = pointLocked(name);
  for (const std::uint64_t h : hits) {
    require(h > 0, "schedule ordinals are 1-based");
    p.schedule.insert(h);
  }
}

void FaultInjector::armChannelSchedule(const std::string& name,
                                       std::uint64_t key,
                                       std::vector<std::uint64_t> hits) {
  std::lock_guard<std::mutex> lock(mutex_);
  KeyState& ks = keyLocked(name, pointLocked(name), key);
  for (const std::uint64_t h : hits) {
    require(h > 0, "schedule ordinals are 1-based");
    ks.schedule.insert(h);
  }
}

void FaultInjector::armOnce(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  Point& p = pointLocked(name);
  p.schedule.insert(p.hits + 1);
}

void FaultInjector::disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(name);
  if (it == points_.end()) return;
  it->second.probability = 0.0;
  it->second.schedule.clear();
  for (auto& [key, ks] : it->second.keys) ks.schedule.clear();
}

void FaultInjector::disarmAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, p] : points_) {
    p.probability = 0.0;
    p.schedule.clear();
    for (auto& [key, ks] : p.keys) ks.schedule.clear();
  }
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  points_.clear();
}

void FaultInjector::setChannelStreams(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  channelStreams_ = on;
}

bool FaultInjector::channelStreams() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return channelStreams_;
}

bool FaultInjector::fireLocked(Point& p) {
  ++p.hits;
  bool fire = false;
  if (p.schedule.erase(p.hits) > 0) fire = true;
  // The probability draw happens on every hit of an armed point so the
  // firing pattern depends only on (seed, point, hit ordinal), not on
  // when the schedule entries were consumed.
  if (p.probability > 0.0 && p.rng.uniform() < p.probability) fire = true;
  if (fire) ++p.fires;
  return fire;
}

bool FaultInjector::shouldFire(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return fireLocked(pointLocked(name));
}

bool FaultInjector::shouldFire(const std::string& name, std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  Point& p = pointLocked(name);
  if (!channelStreams_) return fireLocked(p);
  // Channel-stream mode: each (point, key) pair owns a deterministic
  // sub-stream and hit counter, so whether a given per-channel hit
  // ordinal fires is independent of how rank threads interleave.
  KeyState& ks = keyLocked(name, p, key);
  ++ks.hits;
  ++p.hits;
  bool fire = false;
  // Point schedules stay armed across keys: an ordinal names the same
  // per-channel hit on every channel (count, not erase).
  if (p.schedule.count(ks.hits) > 0 || ks.schedule.erase(ks.hits) > 0)
    fire = true;
  if (p.probability > 0.0 && ks.rng.uniform() < p.probability) fire = true;
  if (fire) ++p.fires;
  return fire;
}

std::uint64_t FaultInjector::hitCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

std::uint64_t FaultInjector::fireCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fires;
}

std::vector<FaultInjector::PointReport> FaultInjector::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<PointReport> rows;
  rows.reserve(points_.size());
  // points_ is an ordered map, so rows come out sorted by name.
  for (const auto& [name, p] : points_) rows.push_back({name, p.hits, p.fires});
  return rows;
}

std::vector<std::string> FaultInjector::firedPoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, p] : points_)
    if (p.fires > 0) names.push_back(name);
  return names;
}

FaultScope::FaultScope(FaultInjector& injector)
    : previous_(g_active.load(std::memory_order_acquire)) {
  g_active.store(&injector, std::memory_order_release);
}

FaultScope::~FaultScope() {
  g_active.store(previous_, std::memory_order_release);
}

FaultInjector* activeFaultInjector() {
  return g_active.load(std::memory_order_acquire);
}

namespace {

bool faultFiresImpl(FaultInjector* injector, const char* point, bool fired) {
  if (!fired) return false;
  // Blackbox trail: a post-mortem must show which injected fault tripped
  // first, before its downstream damage surfaces. The rank is unknown at
  // this layer, so the trip lands on ring 0; the hash reverses through
  // faultPointCatalog() in tools/tkmc_blackbox.
  telemetry::FlightRecorder::global().record(
      0, telemetry::BlackboxEventType::kFaultInjected, 0,
      telemetry::fnv1a64(point), injector->fireCount(point));
  return true;
}

}  // namespace

bool faultFires(const char* point) {
  FaultInjector* injector = g_active.load(std::memory_order_acquire);
  if (injector == nullptr) return false;
  return faultFiresImpl(injector, point, injector->shouldFire(point));
}

bool faultFires(const char* point, std::uint64_t key) {
  FaultInjector* injector = g_active.load(std::memory_order_acquire);
  if (injector == nullptr) return false;
  return faultFiresImpl(injector, point, injector->shouldFire(point, key));
}

const std::vector<FaultPointInfo>& faultPointCatalog() {
  static const std::vector<FaultPointInfo> kCatalog = {
      {"catalog.rate_nan",
       "EventCatalog::evaluateChecked(): corrupts one evaluated propensity "
       "to NaN"},
      {"checkpoint.corrupt_write",
       "serial saveCheckpoint(): flips a body byte after the CRC is "
       "sealed"},
      {"checkpoint.shard_corrupt_write",
       "CheckpointStore::stageShard(): rots a staged shard's bits after "
       "its CRC is recorded"},
      {"comm.corrupt", "SimComm::send(): flips a payload byte in flight"},
      {"comm.drop", "SimComm::send(): silently loses the message"},
      {"comm.duplicate", "SimComm::send(): delivers the message twice"},
      {"comm.rank_kill",
       "SimComm::send(): fail-stops the sending rank mid-protocol"},
      {"engine.cycle",
       "ParallelEngine cycle start: trips a transient invariant error"},
      {"remote.get_fail",
       "RemoteShardStore::get(): fails a fetch during remote heal"},
      {"remote.put_fail",
       "RemoteShardStore::put(): fails a streamed copy (drives streamer "
       "retry/backoff and give-up)"},
      {"remote.slow",
       "RemoteShardStore::put(): stalls the copy ~10 ms (drives remote "
       "lag and commit throttling)"},
      {"remote.torn_copy",
       "RemoteShardStore::put(): writes only half the object (a "
       "half-streamed remote epoch)"},
      {"telemetry.write_tear",
       "telemetry publishJson(): crashes after a partial temp-file "
       "write, before the rename"},
  };
  return kCatalog;
}

}  // namespace tkmc
