#include "kmc/vacancy_cache.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/energy_model.hpp"
#include "kmc/event_catalog/event_catalog.hpp"

namespace tkmc {

VacancyCache::VacancyCache(const Cet& cet, const BccLattice& lattice,
                           const EventCatalog* catalog)
    : cet_(&cet), lattice_(lattice), catalog_(catalog) {}

int VacancyCache::classify(Vec3i center) const {
  return catalog_ ? catalog_->siteClass(lattice_, center) : 0;
}

int VacancyCache::typeCount() const {
  return catalog_ ? catalog_->typeCount() : 1;
}

void VacancyCache::applyChange(Vec3i site, Species species) {
  site = lattice_.wrap(site);
  for (Entry& e : entries_) {
    const int id = cet_->idOf(lattice_.minimumImage(e.center, site));
    if (id < 0 || e.vet[id] == species) continue;
    e.vet.set(id, species);
    if (!e.dirty) ++hits_;
    e.dirty = true;
  }
}

void VacancyCache::erase(int index) {
  entries_.erase(entries_.begin() + index);
}

const std::vector<int>& VacancyCache::refresh(EnergyModel& model,
                                              double temperature,
                                              const std::vector<bool>* wanted,
                                              const Caller& caller,
                                              const LatticeState* direct) {
  require(catalog_ != nullptr, "refreshing rates needs an event catalog");
  const int types = catalog_->typeCount();
  const auto anyTypeApplies = [&](int cls) {
    for (int t = 0; t < types; ++t)
      if (catalog_->typeApplies(t, cls)) return true;
    return false;
  };
  refreshed_.clear();
  batchIdx_.clear();
  batchVets_.clear();
  for (int i = 0; i < size(); ++i) {
    Entry& e = entry(i);
    if (!e.dirty || (wanted && !(*wanted)[static_cast<std::size_t>(i)]))
      continue;
    refreshed_.push_back(i);
    if (!anyTypeApplies(e.siteClass)) {
      // Absorbing class: zero every type's row without an energy eval.
      std::fill(e.rates.begin(), e.rates.end(), JumpRates{});
      e.dirty = false;
      continue;
    }
    batchIdx_.push_back(i);
    batchVets_.push_back(&e.vet);
  }
  if (refreshed_.empty()) return refreshed_;
  // Batched energies are bit-identical to per-system ones, and every
  // shipped event type is hop-shaped over the same environment, so one
  // state-energy batch serves every type.
  std::vector<std::vector<double>> energies;
  if (direct != nullptr)
    for (const int i : batchIdx_)
      energies.push_back(
          model.stateEnergies(*direct, entry(i).center, kNumJumpDirections));
  else if (!batchIdx_.empty())
    energies = model.stateEnergiesBatch(batchVets_, kNumJumpDirections);
  for (std::size_t b = 0; b < batchIdx_.size(); ++b) {
    Entry& e = entry(batchIdx_[b]);
    for (int t = 0; t < types; ++t) {
      JumpRates& slot = e.rates[static_cast<std::size_t>(t)];
      if (!catalog_->typeApplies(t, e.siteClass)) {
        slot = JumpRates{};
        continue;
      }
      slot = catalog_->evaluateChecked(t, e.vet, energies[b], temperature);
      if (std::isfinite(slot.total) && slot.total >= 0.0) continue;
      // A poisoned rate must not silently corrupt the trajectory.
      telemetry::flightRecorder().record(
          caller.rank, telemetry::BlackboxEventType::kInvariantTrip,
          caller.phase, caller.ordinal, static_cast<std::uint64_t>(t));
      telemetry::flightRecorder().dumpIncident("propensity_poisoned");
      throw InvariantError(
          std::string("non-finite or negative propensity from event type '") +
          catalog_->typeInfo(t).name + "' of catalog '" + catalog_->name() +
          "' on rank " + std::to_string(caller.rank) + " at vacancy " +
          std::to_string(batchIdx_[b]) + " (total " +
          std::to_string(slot.total) + ")");
    }
    e.dirty = false;
  }
  refreshes_ += refreshed_.size();
  if (telemetry::enabled())
    telemetry::metrics()
        .histogram(caller.batchMetric, telemetry::Histogram::batchSizeBounds())
        .observe(static_cast<double>(refreshed_.size()));
  telemetry::flightRecorder().record(
      caller.rank, telemetry::BlackboxEventType::kPropensityRefresh,
      caller.phase, refreshed_.size());
  return refreshed_;
}

std::size_t VacancyCache::memoryBytes() const {
  // Per CET slot: one species byte in the VET plus a 4-byte cached global
  // site id (the layout the paper's Table 1 "VAC Cache" row reflects).
  return entries_.size() *
         static_cast<std::size_t>(cet_->nAll()) * (sizeof(Species) + 4);
}

}  // namespace tkmc
