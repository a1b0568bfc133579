#include "kmc/serial_engine.hpp"

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/telemetry/telemetry.hpp"

namespace tkmc {

SerialEngine::SerialEngine(LatticeState& state, EnergyModel& model,
                           const Cet& cet, KmcConfig config,
                           const EventCatalog* catalog)
    : state_(state), model_(model), config_(config),
      catalog_(catalog ? catalog : &defaultEventCatalog()),
      rng_(config.seed), cache_(cet, state.lattice(), catalog_) {
  require(!state.vacancies().empty(),
          "AKMC needs at least one vacancy to evolve");
  require(catalog_->typeCount() >= 1,
          "event catalog must define at least one event type");
  telemetry::flightRecorder().configureRanks(1);
  if (config_.useVacancyCache) {
    require(model.supportsVet(),
            "vacancy cache requires a VET-capable energy backend");
  }
  tree_.resizeForest(catalog_->typeCount(),
                     static_cast<int>(state.vacancies().size()));
  eventsByType_.assign(static_cast<std::size_t>(catalog_->typeCount()), 0);
  eventTypeMetricNames_.clear();
  for (int t = 0; t < catalog_->typeCount(); ++t)
    eventTypeMetricNames_.push_back(std::string("kmc.events.by_type.") +
                                    catalog_->typeInfo(t).name);
  cache_.rebuild(state);
}

void SerialEngine::refreshDirty() {
  // One backend dispatch over every dirty system, in ascending index
  // order. Without the cache every system is dirty each step and its
  // energies come from the lattice, not from its cached VET.
  const std::vector<int>& refreshed =
      cache_.refresh(model_, config_.temperature, nullptr, {0, 0, steps_},
                     config_.useVacancyCache ? nullptr : &state_);
  energyEvals_ += refreshed.size();
  for (int t = 0; t < catalog_->typeCount(); ++t)
    for (const int v : refreshed) tree_.updateTyped(t, v, cache_.rates(v, t).total);
}

SerialEngine::StepResult SerialEngine::step() {
  const bool instrumented = telemetry::enabled();
  Stopwatch watch;
  StepResult result;
  {
    TKMC_SPAN("kmc.refresh");
    refreshDirty();
  }
  TKMC_SPAN("kmc.step");
  const double total = tree_.total();
  if (total <= 0.0) return result;

  // Draw order is fixed (event, direction, time) so that engines with
  // different caching strategies consume the stream identically. With a
  // single-type catalog the forest select degenerates exactly to the
  // historical per-vacancy tree walk.
  const double u1 = rng_.uniform();
  const PropensityTree::Pick pick = config_.useTree
                                        ? tree_.selectTyped(u1 * total)
                                        : tree_.selectLinearTyped(u1 * total);
  const int v = pick.index;
  const JumpRates& jr = cache_.rates(v, pick.type);
  const int arity = catalog_->typeInfo(pick.type).arity;
  const double u2 = rng_.uniform();
  double target = u2 * jr.total;
  int direction = 0;
  for (; direction < arity - 1; ++direction) {
    target -= jr.rate[static_cast<std::size_t>(direction)];
    if (target < 0.0) break;
  }
  // Guard: u2 may land on a zero-rate tail slot; back up to a feasible one.
  while (direction > 0 && jr.rate[static_cast<std::size_t>(direction)] == 0.0)
    --direction;
  const double dt = residenceTime(rng_.uniformOpenLeft(), total);

  const Vec3i from = state_.lattice().wrap(
      state_.vacancies()[static_cast<std::size_t>(v)]);
  const Vec3i to = state_.lattice().wrap(
      from + catalog_->candidateOffset(pick.type, direction));
  state_.hopVacancy(from, to);

  if (config_.useVacancyCache)
    cache_.applyHop(state_, v, from, to);
  else
    cache_.rebuild(state_);  // no cache: every system is re-gathered

  time_ += dt;
  ++steps_;
  ++eventsByType_[static_cast<std::size_t>(pick.type)];
  telemetry::flightRecorder().record(
      0, telemetry::BlackboxEventType::kKmcEvent, 0, steps_,
      static_cast<std::uint64_t>(direction));
  result.advanced = true;
  result.dt = dt;
  result.from = from;
  result.to = to;
  result.vacancyIndex = v;
  result.direction = direction;
  result.eventType = pick.type;
  if (instrumented)
    telemetry::metrics().histogram("kmc.step_seconds").observe(watch.seconds());
  if (observer_) observer_(*this, result);
  return result;
}

void SerialEngine::restore(const Checkpoint& cp) {
  time_ = cp.time;
  steps_ = cp.steps;
  rng_.setState(cp.rngState);
  // Propensities and the vacancy cache derive from the (restored)
  // lattice; rebuild them from scratch.
  tree_.resizeForest(catalog_->typeCount(),
                     static_cast<int>(state_.vacancies().size()));
  cache_.rebuild(state_);
}

std::uint64_t SerialEngine::run() {
  std::uint64_t executed = 0;
  while (time_ < config_.tEnd && steps_ < config_.maxSteps) {
    const StepResult r = step();
    if (!r.advanced) break;
    ++executed;
  }
  publishTelemetry();
  return executed;
}

void SerialEngine::publishTelemetry() const {
  namespace tm = telemetry;
  if (!tm::enabled()) return;
  tm::MetricsRegistry& reg = tm::metrics();
  reg.gauge("kmc.steps").set(static_cast<double>(steps_));
  reg.gauge("kmc.time_seconds").set(time_);
  reg.gauge("kmc.energy_evals").set(static_cast<double>(energyEvals_));
  reg.gauge("kmc.total_propensity").set(tree_.total());
  reg.gauge("kmc.tree.updates").set(static_cast<double>(tree_.updateCount()));
  reg.gauge("kmc.tree.selects").set(static_cast<double>(tree_.selectCount()));
  for (std::size_t t = 0; t < eventTypeMetricNames_.size(); ++t)
    reg.gauge(eventTypeMetricNames_[t])
        .set(static_cast<double>(eventsByType_[t]));
  if (config_.useVacancyCache) {
    reg.gauge("kmc.cache.hits").set(static_cast<double>(cache_.hitCount()));
    reg.gauge("kmc.cache.misses").set(static_cast<double>(cache_.missCount()));
    reg.gauge("kmc.cache.evictions")
        .set(static_cast<double>(cache_.evictionCount()));
    reg.gauge("kmc.cache.hit_rate").set(cache_.hitRate());
    reg.gauge("kmc.cache.bytes").set(static_cast<double>(cache_.memoryBytes()));
  }
}

}  // namespace tkmc
