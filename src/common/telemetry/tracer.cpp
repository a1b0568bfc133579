#include "common/telemetry/tracer.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/telemetry/json.hpp"

namespace tkmc::telemetry {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t Tracer::nowMicros() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::begin(const char* name, int tid) {
  if (!enabled()) return;
  const std::uint64_t ts = nowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back({name, 'B', ts, tid});
}

void Tracer::end(const char* name, int tid) {
  if (!enabled()) return;
  const std::uint64_t ts = nowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back({name, 'E', ts, tid});
}

void Tracer::instant(const char* name, int tid) {
  if (!enabled()) return;
  const std::uint64_t ts = nowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back({name, 'i', ts, tid});
}

void Tracer::flowBegin(const char* name, std::uint64_t id, int tid) {
  if (!enabled()) return;
  const std::uint64_t ts = nowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back({name, 's', ts, tid, id});
}

void Tracer::flowEnd(const char* name, std::uint64_t id, int tid) {
  if (!enabled()) return;
  const std::uint64_t ts = nowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back({name, 'f', ts, tid, id});
}

std::size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void Tracer::setCapacity(std::size_t maxEvents) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = maxEvents;
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::string Tracer::toJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t lastTs = 0;
  // Dropped events (buffer at capacity) can orphan a 'B'; track the open
  // spans so the export can close them and stay balanced. Flows get the
  // same treatment keyed by (name, id): an 'f' whose 's' was dropped is
  // skipped, and flows still open at export (in-flight messages) are
  // closed on the sender's lane.
  std::map<int, std::vector<const std::string*>> open;
  std::map<std::pair<std::string, std::uint64_t>, int> openFlows;
  auto emit = [&](const std::string& name, char phase, std::uint64_t ts,
                  int tid, std::uint64_t id) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << escapeJson(name) << "\",\"cat\":\"tkmc\",\"ph\":\""
        << phase << "\",\"ts\":" << ts << ",\"pid\":1,\"tid\":" << tid;
    if (phase == 'i') out << ",\"s\":\"t\"";
    if (phase == 's' || phase == 'f') {
      out << ",\"id\":" << id;
      if (phase == 'f') out << ",\"bp\":\"e\"";
    }
    out << "}";
  };
  for (const TraceEvent& e : events_) {
    lastTs = e.tsMicros;
    if (e.phase == 'B') {
      open[e.tid].push_back(&e.name);
    } else if (e.phase == 'E') {
      auto& stack = open[e.tid];
      if (stack.empty()) continue;  // orphaned end (its begin was dropped)
      stack.pop_back();
    } else if (e.phase == 's') {
      openFlows[{e.name, e.id}] = e.tid;
    } else if (e.phase == 'f') {
      const auto it = openFlows.find({e.name, e.id});
      if (it == openFlows.end()) continue;  // start was dropped at capacity
      openFlows.erase(it);
    }
    emit(e.name, e.phase, e.tsMicros, e.tid, e.id);
  }
  for (auto& [tid, stack] : open) {
    while (!stack.empty()) {
      emit(*stack.back(), 'E', lastTs, tid, 0);
      stack.pop_back();
    }
  }
  for (const auto& [key, tid] : openFlows) {
    emit(key.first, 'f', lastTs, tid, key.second);
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

void Tracer::writeJson(const std::string& path) const {
  publishJson(path, toJson());
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

}  // namespace tkmc::telemetry
