#include "common/telemetry/flight_recorder.hpp"

#include <chrono>
#include <cstring>
#include <filesystem>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/sealed_file.hpp"

namespace tkmc::telemetry {
namespace {

constexpr std::uint32_t kMagic = 0x42424B54u;  // "TKBB" little-endian
constexpr std::uint32_t kVersion = 1;

struct DumpHeader {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::int32_t rank = 0;
  std::uint32_t reserved = 0;
  std::uint64_t capacity = 0;
  std::uint64_t totalRecorded = 0;
  std::uint64_t eventCount = 0;
};
static_assert(sizeof(DumpHeader) == 40, "blackbox header layout is fixed");

std::int64_t steadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::uint64_t fnv1a64(const char* s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*s));
    h *= 0x100000001b3ULL;
  }
  return h;
}

void FlightRecorder::configureRanks(int ranks) {
  std::lock_guard<std::mutex> lock(configMutex_);
  if (ranks > kMaxRanks) ranks = kMaxRanks;
  const int current = ringCount_.load(std::memory_order_acquire);
  if (ranks <= current) return;
  for (int r = current; r < ranks; ++r)
    rings_[static_cast<std::size_t>(r)] = std::make_unique<Ring>(capacity_);
  if (epochMicros_ == 0) epochMicros_ = steadyMicros();
  ringCount_.store(ranks, std::memory_order_release);
}

void FlightRecorder::setCapacity(std::size_t eventsPerRank) {
  std::lock_guard<std::mutex> lock(configMutex_);
  require(eventsPerRank > 0, "flight recorder needs a positive capacity");
  capacity_ = eventsPerRank;
}

std::uint64_t FlightRecorder::lamportTick() {
  return lamport_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void FlightRecorder::lamportObserve(std::uint64_t peerStamp) {
  std::uint64_t cur = lamport_.load(std::memory_order_relaxed);
  while (peerStamp > cur && !lamport_.compare_exchange_weak(
                                cur, peerStamp, std::memory_order_relaxed)) {
  }
}

std::uint64_t FlightRecorder::nowMicros() const {
  return static_cast<std::uint64_t>(steadyMicros() - epochMicros_);
}

void FlightRecorder::record(int rank, BlackboxEventType type, std::int32_t tag,
                            std::uint64_t a, std::uint64_t b) {
  if (!enabled()) return;
  const int count = ringCount_.load(std::memory_order_acquire);
  if (rank < 0 || rank >= count) return;
  Ring& ring = *rings_[static_cast<std::size_t>(rank)];
  BlackboxEvent ev;
  ev.lamport = lamportTick();
  ev.tsMicros = nowMicros();
  ev.type = static_cast<std::uint16_t>(type);
  ev.rank = static_cast<std::int16_t>(rank);
  ev.tag = tag;
  ev.a = a;
  ev.b = b;
  std::array<std::uint64_t, 5> words;
  static_assert(sizeof(ev) == sizeof(words), "event packs into slot words");
  std::memcpy(words.data(), &ev, sizeof(ev));
  // Seqlock publish: claim an absolute index, store the payload words,
  // then seal with stamp = index + 1 (release). Readers that catch the
  // slot mid-write see a stamp that does not match the index they are
  // scanning and skip it.
  const std::uint64_t index = ring.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring.slots[static_cast<std::size_t>(index % ring.slots.size())];
  for (std::size_t w = 0; w < words.size(); ++w)
    slot.words[w].store(words[w], std::memory_order_relaxed);
  slot.stamp.store(index + 1, std::memory_order_release);
}

std::uint64_t FlightRecorder::recordedTotal(int rank) const {
  if (rank < 0 || rank >= ringCount_.load(std::memory_order_acquire)) return 0;
  return rings_[static_cast<std::size_t>(rank)]->head.load(
      std::memory_order_relaxed);
}

std::vector<BlackboxEvent> FlightRecorder::snapshot(int rank) const {
  std::vector<BlackboxEvent> out;
  if (rank < 0 || rank >= ringCount_.load(std::memory_order_acquire))
    return out;
  const Ring& ring = *rings_[static_cast<std::size_t>(rank)];
  const std::uint64_t total = ring.head.load(std::memory_order_acquire);
  const std::uint64_t cap = ring.slots.size();
  const std::uint64_t kept = total < cap ? total : cap;
  out.reserve(static_cast<std::size_t>(kept));
  for (std::uint64_t i = total - kept; i < total; ++i) {
    const Slot& slot = ring.slots[static_cast<std::size_t>(i % cap)];
    // Seqlock read: the stamp must name this exact absolute index both
    // before and after the copy, else the slot is mid-append (or already
    // overwritten by a lap) and is skipped. Concurrent appends therefore
    // cost at most their own entry, never a torn one.
    const std::uint64_t before = slot.stamp.load(std::memory_order_acquire);
    if (before != i + 1) continue;
    std::array<std::uint64_t, 5> words;
    for (std::size_t w = 0; w < words.size(); ++w)
      words[w] = slot.words[w].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.stamp.load(std::memory_order_relaxed) != i + 1) continue;
    BlackboxEvent ev;
    std::memcpy(static_cast<void*>(&ev), words.data(), sizeof(ev));
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::setDumpDir(std::string dir) {
  std::lock_guard<std::mutex> lock(configMutex_);
  dumpDir_ = std::move(dir);
}

void FlightRecorder::writeDump(const std::string& path, int rank,
                               std::uint64_t capacity,
                               std::uint64_t totalRecorded,
                               const std::vector<BlackboxEvent>& events) {
  DumpHeader header;
  header.rank = rank;
  header.capacity = capacity;
  header.totalRecorded = totalRecorded;
  header.eventCount = events.size();
  const auto* eventBytes = reinterpret_cast<const std::uint8_t*>(events.data());
  const std::size_t eventByteCount = events.size() * sizeof(BlackboxEvent);
  const std::uint32_t crc = crc32(eventBytes, eventByteCount);
  std::string bytes;
  bytes.reserve(sizeof(header) + eventByteCount + sizeof(crc));
  bytes.append(reinterpret_cast<const char*>(&header), sizeof(header));
  bytes.append(reinterpret_cast<const char*>(eventBytes), eventByteCount);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  // Same crash-safety idiom as checkpoint commits: a torn dump must
  // never shadow a complete one under the final name.
  publishAtomic(path, bytes);
}

int FlightRecorder::dumpAll() const noexcept {
  int written = 0;
  try {
    std::string dir;
    {
      std::lock_guard<std::mutex> lock(configMutex_);
      dir = dumpDir_;
    }
    if (dir.empty()) return 0;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return 0;
    const int count = ringCount_.load(std::memory_order_acquire);
    for (int r = 0; r < count; ++r) {
      const std::string path =
          (std::filesystem::path(dir) /
           ("blackbox_rank" + std::to_string(r) + ".bin"))
              .string();
      writeDump(path, r, rings_[static_cast<std::size_t>(r)]->slots.size(),
                recordedTotal(r), snapshot(r));
      ++written;
    }
  } catch (...) {
    // A blackbox dump runs on failure paths; it must never mask the
    // original error. Whatever was written before the throw stands.
  }
  return written;
}

int FlightRecorder::dumpIncident(const char* reason) noexcept {
  const int count = ringCount_.load(std::memory_order_acquire);
  for (int r = 0; r < count; ++r)
    record(r, BlackboxEventType::kDump, 0, fnv1a64(reason));
  return dumpAll();
}

void FlightRecorder::reset() {
  std::lock_guard<std::mutex> lock(configMutex_);
  ringCount_.store(0, std::memory_order_release);
  for (auto& ring : rings_) ring.reset();
  lamport_.store(0, std::memory_order_relaxed);
  epochMicros_ = steadyMicros();
}

FlightRecorder::Dump FlightRecorder::readDump(const std::string& path) {
  const std::string bytes = readWholeFile(path);
  if (bytes.size() < sizeof(DumpHeader) + sizeof(std::uint32_t))
    throw IoError("blackbox dump truncated: " + path);
  DumpHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (header.magic != kMagic)
    throw IoError("not a blackbox dump (bad magic): " + path);
  if (header.version != kVersion)
    throw IoError("unsupported blackbox dump version " +
                  std::to_string(header.version) + ": " + path);
  const std::size_t eventByteCount =
      static_cast<std::size_t>(header.eventCount) * sizeof(BlackboxEvent);
  if (bytes.size() != sizeof(header) + eventByteCount + sizeof(std::uint32_t))
    throw IoError("blackbox dump size does not match its header: " + path);
  std::uint32_t storedCrc = 0;
  std::memcpy(&storedCrc, bytes.data() + sizeof(header) + eventByteCount,
              sizeof(storedCrc));
  const auto* eventBytes =
      reinterpret_cast<const std::uint8_t*>(bytes.data() + sizeof(header));
  if (crc32(eventBytes, eventByteCount) != storedCrc)
    throw IoError("blackbox dump failed its CRC32 check: " + path);
  Dump dump;
  dump.rank = header.rank;
  dump.capacity = header.capacity;
  dump.totalRecorded = header.totalRecorded;
  dump.events.resize(static_cast<std::size_t>(header.eventCount));
  std::memcpy(dump.events.data(), eventBytes, eventByteCount);
  return dump;
}

const char* FlightRecorder::typeName(BlackboxEventType type) {
  switch (type) {
    case BlackboxEventType::kMarker: return "marker";
    case BlackboxEventType::kKmcEvent: return "kmc_event";
    case BlackboxEventType::kPropensityRefresh: return "propensity_refresh";
    case BlackboxEventType::kCommSend: return "comm_send";
    case BlackboxEventType::kCommRecv: return "comm_recv";
    case BlackboxEventType::kCommError: return "comm_error";
    case BlackboxEventType::kCheckpointStage: return "checkpoint_stage";
    case BlackboxEventType::kCommitEpoch: return "commit_epoch";
    case BlackboxEventType::kRankKilled: return "rank_killed";
    case BlackboxEventType::kLeaseExpired: return "lease_expired";
    case BlackboxEventType::kRankFailureDetected: return "rank_failure";
    case BlackboxEventType::kRecovery: return "recovery";
    case BlackboxEventType::kRollback: return "rollback";
    case BlackboxEventType::kInvariantTrip: return "invariant_trip";
    case BlackboxEventType::kFaultInjected: return "fault_injected";
    case BlackboxEventType::kCycle: return "cycle";
    case BlackboxEventType::kDump: return "dump";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

}  // namespace tkmc::telemetry
