#include "common/telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/telemetry/json.hpp"

namespace tkmc::telemetry {

namespace {
std::atomic<bool> gEnabled{false};
}  // namespace

bool enabled() { return gEnabled.load(std::memory_order_relaxed); }
void setEnabled(bool on) { gEnabled.store(on, std::memory_order_relaxed); }

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1),
      bucketMin_(bounds_.size() + 1), bucketMax_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  require(!bounds_.empty(), "histogram needs at least one bucket bound");
  require(std::is_sorted(bounds_.begin(), bounds_.end()) &&
              std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end(),
          "histogram bounds must be strictly ascending");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    bucketMin_[i].store(std::numeric_limits<double>::infinity(),
                        std::memory_order_relaxed);
    bucketMax_[i].store(-std::numeric_limits<double>::infinity(),
                        std::memory_order_relaxed);
  }
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = bucketMin_[idx].load(std::memory_order_relaxed);
  while (v < cur && !bucketMin_[idx].compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
  cur = bucketMax_[idx].load(std::memory_order_relaxed);
  while (v > cur && !bucketMax_[idx].compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::percentile(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  p = std::clamp(p, 1e-9, 100.0);
  const double target = p / 100.0 * static_cast<double>(total);
  const double lo0 = minValue();
  const double hiN = maxValue();
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double inBucket = static_cast<double>(bucketCount(i));
    if (cum + inBucket < target && i + 1 < buckets_.size()) {
      cum += inBucket;
      continue;
    }
    if (inBucket == 0.0) continue;  // skip empty tail candidates
    // Interpolate inside bucket i. The first bucket starts at the
    // observed minimum and the overflow bucket ends at the observed
    // maximum; interior edges are the configured bounds.
    double lo = i == 0 ? lo0 : bounds_[i - 1];
    double hi = i < bounds_.size() ? bounds_[i] : hiN;
    lo = std::max(lo, lo0);
    hi = std::min(hi, hiN);
    if (hi < lo) hi = lo;
    const double fraction = std::clamp((target - cum) / inBucket, 0.0, 1.0);
    double value = lo + fraction * (hi - lo);
    // Never report a value the bucket did not observe: a bucket whose
    // configured edges dwarf its data (e.g. integer counts in default
    // time buckets, where all-zero samples sit in (-inf, 1e-6]) would
    // otherwise interpolate into the empty part of the range.
    const double bMin = bucketMin_[i].load(std::memory_order_relaxed);
    const double bMax = bucketMax_[i].load(std::memory_order_relaxed);
    if (bMin <= bMax) value = std::clamp(value, bMin, bMax);
    return value;
  }
  return hiN;
}

std::vector<double> Histogram::timeBoundsSeconds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 1e2 * 1.5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.5 * decade);
    bounds.push_back(5.0 * decade);
  }
  return bounds;
}

std::vector<double> Histogram::batchSizeBounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 4096.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

std::vector<double> Histogram::trafficBounds() {
  std::vector<double> bounds;
  for (double b = 1e3; b <= 1e12; b *= 10.0) bounds.push_back(b);
  return bounds;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::timeBoundsSeconds();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

namespace {

// JSON floats: finite values verbatim, non-finite as null (min/max of an
// empty histogram are +/-inf, which raw printf would emit as invalid
// JSON).
void appendNumber(std::ostringstream& out, double v) {
  if (std::isfinite(v)) {
    out << v;
  } else {
    out << "null";
  }
}

}  // namespace

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  out.precision(17);
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << escapeJson(name) << "\":" << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << escapeJson(name) << "\":";
    appendNumber(out, g->value());
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << escapeJson(name) << "\":{\"count\":" << h->count()
        << ",\"sum\":";
    appendNumber(out, h->sum());
    out << ",\"min\":";
    appendNumber(out, h->count() ? h->minValue() : 0.0);
    out << ",\"max\":";
    appendNumber(out, h->count() ? h->maxValue() : 0.0);
    out << ",\"mean\":";
    appendNumber(out, h->mean());
    out << ",\"p50\":";
    appendNumber(out, h->percentile(50));
    out << ",\"p95\":";
    appendNumber(out, h->percentile(95));
    out << ",\"p99\":";
    appendNumber(out, h->percentile(99));
    out << "}";
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::writeJson(const std::string& path) const {
  publishJson(path, toJson());
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace tkmc::telemetry
