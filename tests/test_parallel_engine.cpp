#include "parallel/parallel_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/cluster_analysis.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/eam_energy_model.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "tabulation/feature_table.hpp"
#include "kmc/serial_engine.hpp"

namespace tkmc {
namespace {

constexpr double kCutoff = 4.0;

struct ParallelWorld {
  ParallelWorld(std::uint64_t seed, int cells = 20, int vacancies = 6)
      : cet(2.87, kCutoff), net(cet), eam(kCutoff),
        lattice(cells, cells, cells, 2.87), state(lattice) {
    Rng rng(seed);
    state.randomAlloy(0.12, vacancies, rng);
  }

  Cet cet;
  Net net;
  EamPotential eam;
  BccLattice lattice;
  LatticeState state;
};

ParallelConfig fastConfig(std::uint64_t seed) {
  ParallelConfig cfg;
  cfg.seed = seed;
  cfg.tStop = 2e-8;  // the paper's strict synchronization interval
  return cfg;
}

TEST(RequiredGhostCells, CoversTheVacancySystem) {
  const Cet cet(2.87, kCutoff);
  const int g = requiredGhostCells(cet);
  int maxComp = 0;
  for (const Vec3i& s : cet.sites())
    maxComp = std::max({maxComp, std::abs(s.x), std::abs(s.y), std::abs(s.z)});
  EXPECT_GE(2 * g, maxComp);
  EXPECT_LE(2 * (g - 1), maxComp);
}

TEST(ParallelEngine, CyclesAdvanceTimeByTStop) {
  ParallelWorld w(1);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, fastConfig(5));
  engine.runCycle();
  EXPECT_DOUBLE_EQ(engine.time(), 2e-8);
  engine.run(1e-7);
  EXPECT_GE(engine.time(), 1e-7);
  EXPECT_EQ(engine.cycles(), 5u);
}

TEST(ParallelEngine, ConservesVacanciesAndSpecies) {
  ParallelWorld w(2);
  const auto fe = w.state.countSpecies(Species::kFe);
  const auto cu = w.state.countSpecies(Species::kCu);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, fastConfig(6));
  for (int c = 0; c < 16; ++c) {
    engine.runCycle();
    ASSERT_EQ(engine.vacancyCount(), 6) << "cycle " << c;
  }
  const LatticeState global = engine.assembleGlobalState();
  EXPECT_EQ(global.countSpecies(Species::kFe), fe);
  EXPECT_EQ(global.countSpecies(Species::kCu), cu);
  EXPECT_EQ(global.countSpecies(Species::kVacancy), 6);
}

TEST(ParallelEngine, GhostsConsistentAfterEveryCycle) {
  ParallelWorld w(3);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, fastConfig(7));
  for (int c = 0; c < 10; ++c) {
    engine.runCycle();
    ASSERT_TRUE(engine.ghostsConsistent()) << "cycle " << c;
  }
}

TEST(ParallelEngine, ExecutesEventsAcrossSectors) {
  ParallelWorld w(4, 20, 10);
  EamEnergyModel model(w.cet, w.net, w.eam);
  // A longer window lets every sector fire at least once.
  ParallelConfig cfg = fastConfig(8);
  cfg.tStop = 1e-7;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  for (int c = 0; c < 8; ++c) engine.runCycle();
  EXPECT_GT(engine.totalEvents(), 0u);
}

TEST(ParallelEngine, VacancyCanMigrateAcrossRankBoundary) {
  // Put a vacancy right at a subdomain corner and run enough cycles that
  // it almost surely crosses; ownership must follow it (fold protocol).
  ParallelWorld w(5, 20, 0);
  w.state.setSpeciesAt({19, 19, 19}, Species::kVacancy);  // near centre seam
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = fastConfig(9);
  cfg.tStop = 1e-7;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  for (int c = 0; c < 24; ++c) {
    engine.runCycle();
    ASSERT_EQ(engine.vacancyCount(), 1) << "cycle " << c;
    ASSERT_TRUE(engine.ghostsConsistent()) << "cycle " << c;
  }
  const LatticeState global = engine.assembleGlobalState();
  EXPECT_EQ(global.countSpecies(Species::kVacancy), 1);
}

TEST(ParallelEngine, DeterministicForSameSeed) {
  ParallelWorld a(6), b(6);
  EamEnergyModel ma(a.cet, a.net, a.eam), mb(b.cet, b.net, b.eam);
  ParallelEngine ea(a.state, ma, a.cet, fastConfig(10));
  ParallelEngine eb(b.state, mb, b.cet, fastConfig(10));
  for (int c = 0; c < 8; ++c) {
    ea.runCycle();
    eb.runCycle();
  }
  EXPECT_EQ(ea.totalEvents(), eb.totalEvents());
  EXPECT_TRUE(ea.assembleGlobalState() == eb.assembleGlobalState());
  EXPECT_EQ(ea.assembleGlobalState().contentHash(),
            eb.assembleGlobalState().contentHash());
}

TEST(ParallelEngine, MatchesSerialStatisticsOnIsolatedCuDecay) {
  // Not bit-comparable to the serial engine (the sublattice schedule is a
  // different stochastic process), but conserved observables and the
  // direction of coarsening must agree.
  ParallelWorld w(7, 20, 8);
  const auto initialStats = analyzeClusters(w.state, Species::kCu);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = fastConfig(11);
  cfg.tStop = 5e-8;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  for (int c = 0; c < 32; ++c) engine.runCycle();
  const LatticeState global = engine.assembleGlobalState();
  const auto finalStats = analyzeClusters(global, Species::kCu);
  EXPECT_EQ(finalStats.totalAtoms, initialStats.totalAtoms);
}

TEST(ParallelEngine, RejectsTooSmallSubdomains) {
  ParallelWorld w(8, 8, 2);  // 8 cells / 2 ranks = 4-cell subdomains
  EamEnergyModel model(w.cet, w.net, w.eam);
  EXPECT_THROW(ParallelEngine(w.state, model, w.cet, fastConfig(12)), Error);
}

// Rank-grid sweep: the sublattice protocol must hold for non-cubic
// decompositions and more than eight ranks.
struct GridCase {
  Vec3i boxCells;
  Vec3i rankGrid;
};

class RankGridSweep : public ::testing::TestWithParam<GridCase> {};

TEST_P(RankGridSweep, ConservationAndGhostConsistency) {
  const auto& c = GetParam();
  const Cet cet(2.87, kCutoff);
  const Net net(cet);
  const EamPotential eam(kCutoff);
  EamEnergyModel model(cet, net, eam);
  BccLattice lattice(c.boxCells.x, c.boxCells.y, c.boxCells.z, 2.87);
  LatticeState state(lattice);
  Rng rng(17);
  state.randomAlloy(0.1, 6, rng);
  const auto fe = state.countSpecies(Species::kFe);
  const auto cu = state.countSpecies(Species::kCu);

  ParallelConfig cfg;
  cfg.seed = 23;
  cfg.tStop = 5e-8;
  cfg.rankGrid = c.rankGrid;
  ParallelEngine engine(state, model, cet, cfg);
  for (int cycle = 0; cycle < 9; ++cycle) {
    engine.runCycle();
    ASSERT_EQ(engine.vacancyCount(), 6);
    ASSERT_TRUE(engine.ghostsConsistent());
  }
  const LatticeState global = engine.assembleGlobalState();
  EXPECT_EQ(global.countSpecies(Species::kFe), fe);
  EXPECT_EQ(global.countSpecies(Species::kCu), cu);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, RankGridSweep,
    ::testing::Values(GridCase{{20, 20, 20}, {2, 2, 2}},
                      GridCase{{24, 20, 20}, {2, 2, 2}},
                      GridCase{{24, 24, 32}, {2, 2, 4}},
                      GridCase{{32, 16, 16}, {4, 2, 2}}));

TEST(ParallelEngine, CommTrafficIsRecorded) {
  ParallelWorld w(9);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, fastConfig(13));
  engine.runCycle();
  EXPECT_GT(engine.comm().totalBytesSent(), 0u);
  EXPECT_GT(engine.comm().totalMessagesSent(), 0u);
}

// The incremental ghost exchange must not drift: with the full ghost
// sweep armed every cycle, 40 cycles stay consistent without a single
// invariant trip, while the steady-state traffic stays a small fraction
// of the first cycle's full-slab resync.
TEST(ParallelEngine, IncrementalGhostExchangeDoesNotDrift) {
  ParallelWorld w(18);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = fastConfig(27);
  cfg.invariantCadence = 1;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  std::uint64_t firstBytes = 0;
  for (int c = 0; c < 40; ++c) {
    const std::uint64_t before = engine.comm().totalBytesSent();
    engine.runCycle();
    ASSERT_TRUE(engine.ghostsConsistent()) << "cycle " << c;
    const std::uint64_t bytes = engine.comm().totalBytesSent() - before;
    if (c == 0)
      firstBytes = bytes;
    else
      EXPECT_LT(bytes * 10, firstBytes)
          << "cycle " << c << ": " << bytes << " of " << firstBytes;
  }
  EXPECT_GT(engine.totalEvents(), 0u);
  EXPECT_EQ(engine.recoveryStats().invariantTrips, 0u);
  EXPECT_EQ(engine.recoveryStats().rollbacks, 0u);
}

// --- Fault tolerance: cycle rollback, comm retry, invariant monitors ---

TEST(ParallelEngineFaults, RecoveryOnAndOffAreBitIdenticalWhenDisarmed) {
  // The recovery layer (snapshots, CRC framing, invariant checks) must
  // not perturb the physics: same seeds => same event sequence.
  ParallelWorld a(11), b(11);
  EamEnergyModel ma(a.cet, a.net, a.eam), mb(b.cet, b.net, b.eam);
  ParallelConfig withRecovery = fastConfig(20);
  withRecovery.enableRecovery = true;
  withRecovery.invariantCadence = 2;
  ParallelConfig without = fastConfig(20);
  without.enableRecovery = false;
  ParallelEngine ea(a.state, ma, a.cet, withRecovery);
  ParallelEngine eb(b.state, mb, b.cet, without);
  for (int c = 0; c < 6; ++c) {
    ea.runCycle();
    eb.runCycle();
  }
  EXPECT_EQ(ea.totalEvents(), eb.totalEvents());
  EXPECT_EQ(ea.discardedEvents(), eb.discardedEvents());
  EXPECT_TRUE(ea.assembleGlobalState() == eb.assembleGlobalState());
  EXPECT_EQ(ea.assembleGlobalState().contentHash(),
            eb.assembleGlobalState().contentHash());
  const RecoveryStats stats = ea.recoveryStats();
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.commErrors, 0u);
  EXPECT_EQ(stats.ghostRetries, 0u);
  EXPECT_EQ(stats.foldRetries, 0u);
}

TEST(ParallelEngineFaults, SurvivesMessageCorruptionAtFivePercent) {
  // Acceptance scenario: p = 0.05 corruption on every message, 6 cycles.
  // The run must complete with the physics invariants intact and the
  // recovery visible in the engine stats.
  ParallelWorld w(12);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = fastConfig(21);
  cfg.tStop = 5e-8;
  cfg.maxReplays = 8;  // headroom beyond what per-message ARQ absorbs
  ParallelEngine engine(w.state, model, w.cet, cfg);
  FaultInjector inj(2021);
  inj.armProbability("comm.corrupt", 0.05);
  FaultScope scope(inj);
  for (int c = 0; c < 6; ++c) {
    engine.runCycle();
    ASSERT_EQ(engine.vacancyCount(), 6) << "cycle " << c;
  }
  ASSERT_TRUE(engine.ghostsConsistent());
  EXPECT_GT(inj.fireCount("comm.corrupt"), 0u);
  const RecoveryStats stats = engine.recoveryStats();
  EXPECT_GT(stats.ghostRetries + stats.foldRetries + stats.rollbacks, 0u);
}

TEST(ParallelEngineFaults, SurvivesDropsAndDuplicates) {
  ParallelWorld w(13);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = fastConfig(22);
  cfg.tStop = 5e-8;
  cfg.maxReplays = 8;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  FaultInjector inj(7);
  inj.armProbability("comm.drop", 0.02);
  inj.armProbability("comm.duplicate", 0.02);
  FaultScope scope(inj);
  for (int c = 0; c < 5; ++c) {
    engine.runCycle();
    ASSERT_EQ(engine.vacancyCount(), 6) << "cycle " << c;
  }
  ASSERT_TRUE(engine.ghostsConsistent());
  EXPECT_GT(inj.fireCount("comm.drop") + inj.fireCount("comm.duplicate"), 0u);
}

TEST(ParallelEngineFaults, RollsBackAndReplaysInjectedCycleFault) {
  ParallelWorld w(14);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelEngine engine(w.state, model, w.cet, fastConfig(23));
  FaultInjector inj(9);
  inj.armSchedule("engine.cycle", {2});  // trip the second cycle once
  FaultScope scope(inj);
  for (int c = 0; c < 4; ++c) engine.runCycle();
  EXPECT_EQ(engine.cycles(), 4u);
  EXPECT_EQ(engine.recoveryStats().rollbacks, 1u);
  EXPECT_EQ(engine.vacancyCount(), 6);
  EXPECT_TRUE(engine.ghostsConsistent());
}

TEST(ParallelEngineFaults, ReplayedCycleMatchesUnfaultedTrajectory) {
  // A rollback must rewind the RNG streams with the state: after the
  // replay the trajectory is the one an unfaulted run produces.
  ParallelWorld a(15), b(15);
  EamEnergyModel ma(a.cet, a.net, a.eam), mb(b.cet, b.net, b.eam);
  ParallelEngine ea(a.state, ma, a.cet, fastConfig(24));
  ParallelEngine eb(b.state, mb, b.cet, fastConfig(24));
  {
    FaultInjector inj(10);
    inj.armSchedule("engine.cycle", {1, 3});
    FaultScope scope(inj);
    for (int c = 0; c < 4; ++c) ea.runCycle();
  }
  for (int c = 0; c < 4; ++c) eb.runCycle();
  EXPECT_EQ(ea.recoveryStats().rollbacks, 2u);
  EXPECT_EQ(ea.totalEvents(), eb.totalEvents());
  EXPECT_TRUE(ea.assembleGlobalState() == eb.assembleGlobalState());
  EXPECT_EQ(ea.assembleGlobalState().contentHash(),
            eb.assembleGlobalState().contentHash());
}

TEST(ParallelEngineFaults, ReplayedCycleResyncsGhostsInFull) {
  // A rollback restores snapshot subdomains whose change lists say
  // nothing about the replay, so the replayed cycle must send every
  // ghost slab in full — and still follow the unfaulted trajectory.
  telemetry::ScopedEnable telemetryOn;
  ParallelWorld a(19), b(19);
  EamEnergyModel ma(a.cet, a.net, a.eam), mb(b.cet, b.net, b.eam);
  ParallelEngine faulted(a.state, ma, a.cet, fastConfig(28));
  ParallelEngine clean(b.state, mb, b.cet, fastConfig(28));
  const auto fullSlabs = static_cast<std::uint64_t>(6 * faulted.rankCount());
  const auto resyncSlabs = [] {
    return telemetry::metrics().counter("ghost.resync_slabs").value();
  };
  FaultInjector inj(30);
  inj.armSchedule("engine.cycle", {5});  // the fifth cycle trips once
  for (int c = 0; c < 8; ++c) {
    std::uint64_t before = resyncSlabs();
    {
      FaultScope scope(inj);
      faulted.runCycle();
    }
    const std::uint64_t faultedSlabs = resyncSlabs() - before;
    before = resyncSlabs();
    clean.runCycle();
    const std::uint64_t cleanSlabs = resyncSlabs() - before;
    EXPECT_EQ(faultedSlabs, c == 0 || c == 4 ? fullSlabs : 0u) << "cycle " << c;
    EXPECT_EQ(cleanSlabs, c == 0 ? fullSlabs : 0u) << "cycle " << c;
  }
  EXPECT_EQ(faulted.recoveryStats().rollbacks, 1u);
  EXPECT_TRUE(faulted.ghostsConsistent());
  EXPECT_EQ(faulted.totalEvents(), clean.totalEvents());
  EXPECT_EQ(faulted.assembleGlobalState().contentHash(),
            clean.assembleGlobalState().contentHash());
}

TEST(ParallelEngineFaults, WithoutRecoveryTheSameFaultAborts) {
  // The contrast case for the acceptance criterion: identical arming,
  // recovery disabled -> the typed error surfaces to the caller.
  ParallelWorld w(16);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = fastConfig(25);
  cfg.enableRecovery = false;
  cfg.commMaxAttempts = 1;  // no ghost-exchange retry either
  ParallelEngine engine(w.state, model, w.cet, cfg);
  FaultInjector inj(11);
  inj.armSchedule("comm.corrupt", {1});
  FaultScope scope(inj);
  EXPECT_THROW(engine.runCycle(), CommError);
}

TEST(ParallelEngineFaults, UnrecoverableFaultStormSurfacesTypedError) {
  ParallelWorld w(17);
  EamEnergyModel model(w.cet, w.net, w.eam);
  ParallelConfig cfg = fastConfig(26);
  cfg.maxReplays = 2;
  cfg.commMaxAttempts = 2;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  FaultInjector inj(12);
  inj.armProbability("comm.corrupt", 1.0);  // nothing gets through, ever
  FaultScope scope(inj);
  EXPECT_THROW(engine.runCycle(), CommError);
  EXPECT_GT(engine.recoveryStats().commErrors, 0u);
}

TEST(ParallelEngine, RunsOnTheNnpBackend) {
  // The parallel schedule is backend-agnostic: drive it with the neural
  // network potential (small net) and check the same invariants.
  ParallelWorld w(10);
  const FeatureTable table(w.net.distances(), standardPqSets());
  Network network({64, 8, 1});
  Rng rng(19);
  network.initHe(rng);
  NnpEnergyModel model(w.cet, w.net, table, network);
  ParallelConfig cfg = fastConfig(14);
  cfg.tStop = 5e-8;
  ParallelEngine engine(w.state, model, w.cet, cfg);
  for (int cycle = 0; cycle < 6; ++cycle) {
    engine.runCycle();
    ASSERT_EQ(engine.vacancyCount(), 6);
    ASSERT_TRUE(engine.ghostsConsistent());
  }
}

}  // namespace
}  // namespace tkmc
