#include "kmc/vacancy_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "kmc/bond_counting_model.hpp"
#include "kmc/eam_energy_model.hpp"
#include "kmc/event_catalog/vacancy_hop_catalog.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "parallel/coordinated_checkpoint.hpp"
#include "parallel/parallel_engine.hpp"
#include "tabulation/feature_table.hpp"

namespace tkmc {
namespace {

class VacancyCacheTest : public ::testing::Test {
 protected:
  VacancyCacheTest() : cet_(2.87, 4.0), lattice_(14, 14, 14, 2.87), state_(lattice_) {
    Rng rng(81);
    state_.randomAlloy(0.15, 4, rng);
  }

  Cet cet_;
  BccLattice lattice_;
  LatticeState state_;
};

TEST_F(VacancyCacheTest, RebuildGathersEveryVacancy) {
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(state_);
  ASSERT_EQ(cache.size(), 4);
  for (int v = 0; v < cache.size(); ++v) {
    EXPECT_TRUE(cache.isDirty(v));
    const Vet fresh = Vet::gather(cet_, state_, cache.center(v));
    EXPECT_EQ(cache.vet(v).data(), fresh.data());
  }
}

TEST_F(VacancyCacheTest, CachedVetsStayCoherentUnderRandomHops) {
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(state_);
  Rng rng(82);
  for (int step = 0; step < 300; ++step) {
    const int v = static_cast<int>(rng.uniformBelow(
        static_cast<std::uint64_t>(state_.vacancies().size())));
    const Vec3i from = lattice_.wrap(state_.vacancies()[static_cast<std::size_t>(v)]);
    const Vec3i to = lattice_.wrap(
        from + BccLattice::firstNeighborOffsets()[rng.uniformBelow(8)]);
    if (state_.speciesAt(to) == Species::kVacancy) continue;
    state_.hopVacancy(from, to);
    cache.applyHop(state_, v, from, to);
    // Every cached VET must equal a fresh gather — the invariant that
    // makes cache-on and cache-off trajectories bit-identical (Fig. 8).
    for (int u = 0; u < cache.size(); ++u) {
      const Vet fresh = Vet::gather(cet_, state_, cache.center(u));
      ASSERT_EQ(cache.vet(u).data(), fresh.data())
          << "step " << step << " vacancy " << u;
    }
  }
}

TEST_F(VacancyCacheTest, HopMarksOnlyNearbySystemsDirty) {
  // Two vacancies far apart: hopping one must not dirty the other.
  LatticeState isolated(lattice_);
  isolated.setSpeciesAt({0, 0, 0}, Species::kVacancy);
  isolated.setSpeciesAt({14, 14, 14}, Species::kVacancy);
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(isolated);
  cache.clearDirty(0);
  cache.clearDirty(1);
  isolated.hopVacancy({0, 0, 0}, {1, 1, 1});
  cache.applyHop(isolated, 0, {0, 0, 0}, {1, 1, 1});
  EXPECT_TRUE(cache.isDirty(0));   // the hopped vacancy itself
  EXPECT_FALSE(cache.isDirty(1));  // far away, untouched
}

TEST_F(VacancyCacheTest, NeighborSystemIsPatchedAndDirty) {
  LatticeState nearby(lattice_);
  nearby.setSpeciesAt({6, 6, 6}, Species::kVacancy);
  nearby.setSpeciesAt({10, 6, 6}, Species::kVacancy);  // within CET range
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(nearby);
  cache.clearDirty(0);
  cache.clearDirty(1);
  nearby.hopVacancy({6, 6, 6}, {7, 7, 7});
  cache.applyHop(nearby, 0, {6, 6, 6}, {7, 7, 7});
  EXPECT_TRUE(cache.isDirty(1));
  const Vet fresh = Vet::gather(cet_, nearby, cache.center(1));
  EXPECT_EQ(cache.vet(1).data(), fresh.data());
}

TEST_F(VacancyCacheTest, GatherCountStaysLowWithCache) {
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(state_);
  const std::uint64_t initialGathers = cache.gatherCount();
  EXPECT_EQ(initialGathers, 4u);
  state_.hopVacancy(lattice_.wrap(state_.vacancies()[0]),
                    lattice_.wrap(state_.vacancies()[0] + Vec3i{1, 1, 1}));
  cache.applyHop(state_, 0, lattice_.wrap(state_.vacancies()[0] - Vec3i{1, 1, 1}),
                 lattice_.wrap(state_.vacancies()[0]));
  // Exactly one additional gather: the hopped system only.
  EXPECT_EQ(cache.gatherCount(), initialGathers + 1);
}

TEST_F(VacancyCacheTest, RebuildGathersAreNotCountedAsMisses) {
  // Regression: the bulk gathers of rebuild() are cold fills, not cache
  // decisions. Counting them as misses dragged kmc.cache.hit_rate far
  // below the paper's ~98% on short runs (4 vacancies -> 4 phantom
  // misses before the first step).
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(state_);
  EXPECT_EQ(cache.gatherCount(), 4u);  // still visible as gathers
  EXPECT_EQ(cache.missCount(), 0u);    // but not as misses
  EXPECT_EQ(cache.hitCount(), 0u);
  EXPECT_EQ(cache.hitRate(), 0.0);  // no decisions yet (documented value)

  // A second rebuild (restore path) must not manufacture misses either.
  cache.rebuild(state_);
  EXPECT_EQ(cache.missCount(), 0u);
  EXPECT_EQ(cache.hitRate(), 0.0);
}

TEST_F(VacancyCacheTest, HoppedSystemRegatherIsExactlyOneMiss) {
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(state_);
  const Vec3i from = lattice_.wrap(state_.vacancies()[0]);
  const Vec3i to = lattice_.wrap(from + Vec3i{1, 1, 1});
  ASSERT_NE(state_.speciesAt(to), Species::kVacancy);
  state_.hopVacancy(from, to);
  cache.applyHop(state_, 0, from, to);
  // Steady state: the hopped vacancy's full re-gather is the only miss;
  // neighbour systems patched in place count as hits.
  EXPECT_EQ(cache.missCount(), 1u);
  EXPECT_EQ(cache.gatherCount(), 5u);
  const std::uint64_t total = cache.hitCount() + cache.missCount();
  EXPECT_EQ(cache.hitRate(),
            static_cast<double>(cache.hitCount()) / static_cast<double>(total));
}

TEST_F(VacancyCacheTest, MemoryBytesMatchPaperLayout) {
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(state_);
  // 5 bytes per CET slot per vacancy (species + int32 global id).
  EXPECT_EQ(cache.memoryBytes(),
            4u * static_cast<std::size_t>(cet_.nAll()) * 5u);
}

TEST_F(VacancyCacheTest, RefreshEvaluatesExactlyTheDirtyEntries) {
  const Net net(cet_);
  const EamPotential eam(4.0);
  EamEnergyModel model(cet_, net, eam);
  const VacancyHopCatalog catalog;
  VacancyCache cache(cet_, lattice_, &catalog);
  cache.rebuild(state_);
  EXPECT_EQ(cache.refresh(model, 573.0, nullptr, {}).size(), 4u);
  EXPECT_EQ(cache.refreshCount(), 4u);
  EXPECT_TRUE(cache.refresh(model, 573.0, nullptr, {}).empty());

  Rng rng(83);
  for (int step = 0; step < 40; ++step) {
    const int v = static_cast<int>(rng.uniformBelow(4));
    const Vec3i from = cache.center(v);
    const Vec3i to = lattice_.wrap(
        from + BccLattice::firstNeighborOffsets()[rng.uniformBelow(8)]);
    if (state_.speciesAt(to) == Species::kVacancy) continue;
    state_.hopVacancy(from, to);
    cache.applyHop(state_, v, from, to);
    std::vector<int> dirty;
    for (int u = 0; u < cache.size(); ++u)
      if (cache.isDirty(u)) dirty.push_back(u);
    const std::uint64_t before = cache.refreshCount();
    EXPECT_EQ(cache.refresh(model, 573.0, nullptr, {}), dirty);
    EXPECT_EQ(cache.refreshCount() - before, dirty.size());
  }
}

// --- Per-rank caches of the parallel engine ------------------------------

struct EngineWorld {
  explicit EngineWorld(std::uint64_t seed)
      : cet(2.87, 4.0), net(cet), eam(4.0),
        table(net.distances(), standardPqSets()), network({64, 8, 1}),
        lattice(20, 20, 20, 2.87), state(lattice) {
    Rng rng(seed);
    state.randomAlloy(0.12, 8, rng);
    Rng init(seed ^ 0x99);
    network.initHe(init);
  }

  Cet cet;
  Net net;
  EamPotential eam;
  FeatureTable table;
  Network network;
  BccLattice lattice;
  LatticeState state;
};

ParallelConfig sweepConfig(Vec3i grid, bool threaded) {
  ParallelConfig cfg;
  cfg.seed = 71;
  cfg.tStop = 5e-8;
  cfg.rankGrid = grid;
  cfg.threaded = threaded;
  return cfg;
}

/// Every rank's cache mirrors its vacancy list; every entry's VET and
/// class equal a fresh gather, and every clean entry's rates equal a
/// fresh evaluation.
void expectCachesCoherent(const ParallelEngine& engine, EnergyModel& model,
                          const Cet& cet, double temperature) {
  const EventCatalog& catalog = engine.catalog();
  for (int r = 0; r < engine.rankCount(); ++r) {
    const Subdomain& sd = engine.subdomain(r);
    const VacancyCache& cache = sd.cache();
    ASSERT_EQ(cache.size(), static_cast<int>(sd.vacancies().size()));
    for (int i = 0; i < cache.size(); ++i) {
      const Vec3i c = cache.center(i);
      EXPECT_EQ(c, sd.vacancies()[static_cast<std::size_t>(i)]);
      Vet fresh = Vet::gather(cet, sd, c);
      EXPECT_EQ(cache.vet(i).data(), fresh.data()) << "rank " << r;
      const int cls = catalog.siteClass(sd.global(), c);
      EXPECT_EQ(cache.siteClass(i), cls);
      if (cache.isDirty(i)) continue;
      Vet* one[] = {&fresh};
      const auto energies = model.stateEnergiesBatch(one, kNumJumpDirections);
      for (int t = 0; t < catalog.typeCount(); ++t) {
        const JumpRates expected =
            catalog.typeApplies(t, cls)
                ? catalog.evaluate(t, fresh, energies[0], temperature)
                : JumpRates{};
        EXPECT_EQ(cache.rates(i, t).rate, expected.rate) << "rank " << r;
        EXPECT_EQ(cache.rates(i, t).total, expected.total) << "rank " << r;
      }
    }
  }
}

void sweep(EnergyModel& model, const EngineWorld& w, ParallelConfig cfg,
           int cycles = 10) {
  ParallelEngine engine(w.state, model, w.cet, cfg);
  expectCachesCoherent(engine, model, w.cet, cfg.temperature);
  for (int c = 0; c < cycles; ++c) {
    engine.runCycle();
    SCOPED_TRACE("cycle " + std::to_string(c));
    expectCachesCoherent(engine, model, w.cet, cfg.temperature);
  }
  EXPECT_GT(engine.totalEvents(), 0u);
}

TEST(ParallelCacheCoherence, EamInlineAndThreadedOnFlatAndCubicGrids) {
  const EngineWorld w(91);
  EamEnergyModel model(w.cet, w.net, w.eam);
  for (const Vec3i grid : {Vec3i{2, 2, 1}, Vec3i{2, 2, 2}})
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE(std::string(threaded ? "threaded " : "inline ") +
                   std::to_string(grid.z));
      sweep(model, w, sweepConfig(grid, threaded));
    }
}

TEST(ParallelCacheCoherence, BondCounting) {
  const EngineWorld w(92);
  BondCountingModel model(w.cet, w.net);
  sweep(model, w, sweepConfig({2, 2, 2}, false));
  sweep(model, w, sweepConfig({2, 2, 1}, true));
}

TEST(ParallelCacheCoherence, Nnp) {
  const EngineWorld w(93);
  NnpEnergyModel model(w.cet, w.net, w.table, w.network);
  sweep(model, w, sweepConfig({2, 2, 1}, false));
  sweep(model, w, sweepConfig({2, 2, 2}, true));
}

TEST(ParallelCacheCoherence, TrapDetrapTwoTypesAndAnAbsorbingClass) {
  const EngineWorld w(94);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = sweepConfig({2, 2, 1}, false);
  cfg.catalog.name = "trap_detrap";
  cfg.catalog.trapFraction = 0.2;
  sweep(model, w, cfg);
}

TEST(ParallelCacheCoherence, RolledBackCycleFaults) {
  const EngineWorld w(95);
  EamEnergyModel model(w.cet, w.net, w.eam);
  const ParallelConfig cfg = sweepConfig({2, 2, 1}, false);
  ParallelEngine clean(w.state, model, w.cet, cfg);
  for (int c = 0; c < 8; ++c) clean.runCycle();

  ParallelEngine engine(w.state, model, w.cet, cfg);
  FaultInjector inj(5);
  // A trip at the top of cycle 3, and a poisoned rate in the middle of a
  // refresh batch, after some entries of it were already rewritten.
  inj.armSchedule("engine.cycle", {3});
  inj.armSchedule("catalog.rate_nan", {40});
  {
    FaultScope scope(inj);
    for (int c = 0; c < 8; ++c) {
      engine.runCycle();
      SCOPED_TRACE("cycle " + std::to_string(c));
      expectCachesCoherent(engine, model, w.cet, cfg.temperature);
    }
  }
  EXPECT_EQ(inj.fireCount("engine.cycle"), 1u);
  EXPECT_EQ(inj.fireCount("catalog.rate_nan"), 1u);
  EXPECT_EQ(engine.recoveryStats().rollbacks, 2u);
  EXPECT_EQ(engine.assembleGlobalState().contentHash(),
            clean.assembleGlobalState().contentHash());
  EXPECT_EQ(engine.totalEvents(), clean.totalEvents());
}

TEST(ParallelCacheCoherence, AdoptedEpochResume) {
  const auto dir =
      (std::filesystem::temp_directory_path() / "tkmc_cache_resume").string();
  std::filesystem::remove_all(dir);
  const EngineWorld w(96);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = sweepConfig({2, 2, 2}, false);
  cfg.checkpointDir = dir;
  ParallelEngine live(w.state, model, w.cet, cfg);
  for (int c = 0; c < 6; ++c) live.runCycle();

  cfg.checkpointDir.clear();
  const CheckpointStore store(dir);
  ParallelEngine resumed(model, w.cet, cfg, store, 3);
  expectCachesCoherent(resumed, model, w.cet, cfg.temperature);
  while (resumed.cycles() < live.cycles()) {
    resumed.runCycle();
    expectCachesCoherent(resumed, model, w.cet, cfg.temperature);
  }
  EXPECT_EQ(resumed.assembleGlobalState().contentHash(),
            live.assembleGlobalState().contentHash());
  std::filesystem::remove_all(dir);
}

TEST(ParallelCacheCoherence, WindowsRefreshOnlyDirtyEntries) {
  // A window too short for any event: nothing is written, so each entry
  // is evaluated once, when its sector first comes up, and never again.
  // Rebuilding rates at every sector entry would evaluate each vacancy
  // once per eight cycles, forever.
  const EngineWorld w(97);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = sweepConfig({2, 2, 1}, false);
  cfg.tStop = 1e-30;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  const auto refreshes = [&] {
    std::uint64_t total = 0;
    int dirty = 0;
    for (int r = 0; r < engine.rankCount(); ++r) {
      const VacancyCache& cache = engine.subdomain(r).cache();
      total += cache.refreshCount();
      for (int i = 0; i < cache.size(); ++i) dirty += cache.isDirty(i);
    }
    return std::pair{total, dirty};
  };
  ASSERT_EQ(refreshes(), (std::pair<std::uint64_t, int>{0, 8}));
  for (int c = 0; c < 8; ++c) engine.runCycle();
  EXPECT_EQ(refreshes(), (std::pair<std::uint64_t, int>{8, 0}));
  for (int c = 0; c < 16; ++c) engine.runCycle();
  EXPECT_EQ(refreshes(), (std::pair<std::uint64_t, int>{8, 0}));
  EXPECT_EQ(engine.totalEvents(), 0u);
}

}  // namespace
}  // namespace tkmc
