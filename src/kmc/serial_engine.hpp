#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kmc/energy_model.hpp"
#include "kmc/event_catalog/event_catalog.hpp"
#include "kmc/propensity_tree.hpp"
#include "kmc/rate_calculator.hpp"
#include "kmc/vacancy_cache.hpp"
#include "lattice/lattice_state.hpp"
#include "tabulation/cet.hpp"

namespace tkmc {

/// AKMC engine configuration.
struct KmcConfig {
  double temperature = 573.0;      // kelvin (paper's RPV thermal aging)
  double tEnd = 1e-7;              // simulated seconds
  std::uint64_t maxSteps = ~0ULL;  // hard step cap
  std::uint64_t seed = 12345;
  bool useVacancyCache = true;     // Sec. 3.2 mechanism
  bool useTree = true;             // tree vs linear propensity selection
};

/// Serial AKMC engine (paper Sec. 2.1 flow with the Sec. 3 innovations).
///
/// Per step: refresh propensities of dirty vacancy systems for every
/// event type of the catalog, select an (event type, vacancy) from the
/// propensity forest and a candidate within it, draw the residence-time
/// increment (Eq. 3), apply the exchange, and propagate the change
/// through the vacancy cache. With the cache disabled every vacancy
/// system is re-gathered and re-evaluated each step — the reference
/// configuration of the Fig. 8 validation, which must produce a
/// bit-identical trajectory.
///
/// All physics dispatches through the EventCatalog: with the default
/// VacancyHopCatalog (one type) the engine reproduces the historical
/// hardcoded eight-hop trajectories bit-for-bit.
class SerialEngine {
 public:
  /// `catalog` must outlive the engine; null selects the process-wide
  /// default (the historical vacancy-hop physics).
  SerialEngine(LatticeState& state, EnergyModel& model, const Cet& cet,
               KmcConfig config, const EventCatalog* catalog = nullptr);

  struct StepResult {
    bool advanced = false;  // false when no event is possible
    double dt = 0.0;
    Vec3i from{};
    Vec3i to{};
    int vacancyIndex = -1;
    int direction = -1;
    int eventType = -1;
  };

  /// Executes one KMC event.
  StepResult step();

  /// Runs until tEnd, maxSteps, or a zero-propensity state. Returns the
  /// number of events executed.
  std::uint64_t run();

  /// Optional per-event observer (called after each applied hop).
  void setObserver(std::function<void(const SerialEngine&, const StepResult&)> cb) {
    observer_ = std::move(cb);
  }

  double time() const { return time_; }
  std::uint64_t steps() const { return steps_; }
  const LatticeState& state() const { return state_; }
  double totalPropensity() const { return tree_.total(); }
  const EventCatalog& catalog() const { return *catalog_; }

  /// Committed events per catalog event type (index = type id).
  const std::vector<std::uint64_t>& eventsByType() const {
    return eventsByType_;
  }

  /// Instrumentation: energy-backend invocations (propensity refreshes).
  std::uint64_t energyEvaluations() const { return energyEvals_; }
  const VacancyCache& cache() const { return cache_; }
  const PropensityTree& tree() const { return tree_; }

  /// Publishes the engine's cumulative counters (steps, energy
  /// evaluations, per-event-type counts, cache hit/miss/eviction rates,
  /// tree operation counts, propensity total) as metrics in the global
  /// telemetry registry. No-op while telemetry is disabled.
  void publishTelemetry() const;

  /// Engine-side checkpoint state: together with the lattice occupation
  /// this is everything needed to resume a trajectory bit-exactly (the
  /// cache and propensities are pure functions of the lattice).
  struct Checkpoint {
    double time = 0.0;
    std::uint64_t steps = 0;
    std::array<std::uint64_t, 4> rngState{};
  };
  Checkpoint checkpoint() const { return {time_, steps_, rng_.state()}; }

  /// Restores a checkpoint taken from an engine over the same lattice
  /// contents (the caller restores the LatticeState first).
  void restore(const Checkpoint& cp);

 private:
  void refreshDirty();

  LatticeState& state_;
  EnergyModel& model_;
  KmcConfig config_;
  const EventCatalog* catalog_;
  Rng rng_;
  VacancyCache cache_;
  PropensityTree tree_;
  double time_ = 0.0;
  std::uint64_t steps_ = 0;
  std::uint64_t energyEvals_ = 0;
  std::vector<std::uint64_t> eventsByType_;
  std::vector<std::string> eventTypeMetricNames_;  // kmc.events.by_type.*
  std::function<void(const SerialEngine&, const StepResult&)> observer_;
};

}  // namespace tkmc
