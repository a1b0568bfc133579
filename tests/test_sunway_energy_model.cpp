#include "sunway/sunway_energy_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "kmc/serial_engine.hpp"
#include "parallel/parallel_engine.hpp"
#include "vacancy_systems.hpp"

namespace tkmc {
namespace {

class SunwayModelTest : public ::testing::Test {
 protected:
  SunwayModelTest()
      : cet_(2.87, 4.0), net_(cet_),
        table_(net_.distances(), standardPqSets()), network_({64, 16, 16, 1}),
        lattice_(14, 14, 14, 2.87), state_(lattice_) {
    Rng rng(7);
    network_.initHe(rng);
    Rng arng(8);
    state_.randomAlloy(0.15, 3, arng);
  }

  Cet cet_;
  Net net_;
  FeatureTable table_;
  Network network_;
  BccLattice lattice_;
  LatticeState state_;
};

TEST_F(SunwayModelTest, AgreesWithDoublePrecisionBackend) {
  SunwayEnergyModel sunway(cet_, net_, table_, network_);
  NnpEnergyModel reference(cet_, net_, table_, network_);
  for (const Vec3i& vac : state_.vacancies()) {
    const Vec3i center = lattice_.wrap(vac);
    const auto a = sunway.stateEnergies(state_, center, kNumJumpDirections);
    const auto b = reference.stateEnergies(state_, center, kNumJumpDirections);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      // Single vs double precision: relative agreement, not bitwise.
      const double scale = std::max(1.0, std::abs(b[s]));
      EXPECT_NEAR(a[s], b[s], scale * 1e-4) << "state " << s;
    }
  }
}

TEST_F(SunwayModelTest, EnergyDifferencesAgreeTighter) {
  // KMC only consumes dE = E_f - E_i; the absolute float error largely
  // cancels in the difference.
  SunwayEnergyModel sunway(cet_, net_, table_, network_);
  NnpEnergyModel reference(cet_, net_, table_, network_);
  const Vec3i center = lattice_.wrap(state_.vacancies()[0]);
  const auto a = sunway.stateEnergies(state_, center, kNumJumpDirections);
  const auto b = reference.stateEnergies(state_, center, kNumJumpDirections);
  for (int k = 1; k <= kNumJumpDirections; ++k) {
    const double dA = a[static_cast<std::size_t>(k)] - a[0];
    const double dB = b[static_cast<std::size_t>(k)] - b[0];
    EXPECT_NEAR(dA, dB, 1e-3 * std::max(1.0, std::abs(dB)));
  }
}

TEST_F(SunwayModelTest, DrivesTheSerialEngine) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  KmcConfig cfg;
  cfg.seed = 42;
  cfg.tEnd = 1e300;
  SerialEngine engine(state_, model, cet_, cfg);
  const auto cu = state_.countSpecies(Species::kCu);
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(engine.step().advanced);
  EXPECT_EQ(state_.countSpecies(Species::kCu), cu);
  EXPECT_EQ(state_.countSpecies(Species::kVacancy), 3);
}

TEST_F(SunwayModelTest, DeterministicAcrossInstances) {
  SunwayEnergyModel m1(cet_, net_, table_, network_);
  SunwayEnergyModel m2(cet_, net_, table_, network_);
  const Vec3i center = lattice_.wrap(state_.vacancies()[0]);
  const auto a = m1.stateEnergies(state_, center, kNumJumpDirections);
  const auto b = m2.stateEnergies(state_, center, kNumJumpDirections);
  EXPECT_EQ(a, b);  // bitwise: same kernels, same order
}

TEST_F(SunwayModelTest, TrafficFlowsThroughTheSimulator) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  EXPECT_GT(model.modelLoadTraffic().mainReadBytes, 0u);
  const Vec3i center = lattice_.wrap(state_.vacancies()[0]);
  model.stateEnergies(state_, center, kNumJumpDirections);
  const Traffic t = model.collectTraffic();
  EXPECT_GT(t.mainReadBytes, 0u);
  EXPECT_GT(t.flops, 0u);
  EXPECT_GT(t.rmaBytes, 0u);
  // Drained: a second collect sees nothing.
  EXPECT_EQ(model.collectTraffic().mainBytes(), 0u);
}

TEST_F(SunwayModelTest, MultiVacancyMaskingMatchesReference) {
  // Put two vacancies within one jumping region; masking must stay
  // consistent between the float and double backends.
  LatticeState crowded(lattice_);
  Rng rng(9);
  crowded.randomAlloy(0.1, 0, rng);
  crowded.setSpeciesAt({6, 6, 6}, Species::kVacancy);
  crowded.setSpeciesAt({8, 8, 6}, Species::kVacancy);
  SunwayEnergyModel sunway(cet_, net_, table_, network_);
  NnpEnergyModel reference(cet_, net_, table_, network_);
  const auto a = sunway.stateEnergies(crowded, {6, 6, 6}, kNumJumpDirections);
  const auto b = reference.stateEnergies(crowded, {6, 6, 6}, kNumJumpDirections);
  for (std::size_t s = 0; s < a.size(); ++s)
    EXPECT_NEAR(a[s], b[s], 1e-4 * std::max(1.0, std::abs(b[s])));
}

// SunwayEnergyModel feeds the CPE operators only the rows of
// RowPlan::hopLocal() and takes every other site's atomic energy from
// the initial state. The contract is bitwise: every state energy must
// equal the full-row pipeline — FeatureOperator::compute over every site
// of every state, one BigFusionOperator::forward over all those rows,
// and a site-order sum with the state's vacancies masked — through the
// single-system path and through batches of every size.
class SunwayFullRows {
 public:
  SunwayFullRows(const Net& net, const FeatureTable& table,
                 const Network& network)
      : features_(net, table, grid_), fusion_(network.foldedSnapshot(), grid_) {
    fusion_.loadModel();
  }

  std::vector<double> energies(const Vet& vet, int numFinal) {
    features_.compute(vet, numFinal, featureBuffer_);
    const int nRegion = features_.regionSites();
    const int m = (1 + numFinal) * nRegion;
    std::vector<float> atomE(static_cast<std::size_t>(m));
    fusion_.forward(featureBuffer_.data(), m, atomE.data());
    std::vector<double> out;
    for (int s = 0; s <= numFinal; ++s) {
      Vet state = vet;
      if (s > 0) state.swap(0, Cet::jumpTargetId(s - 1));
      double total = 0.0;
      for (int site = 0; site < nRegion; ++site) {
        if (state[site] == Species::kVacancy) continue;
        total += static_cast<double>(
            atomE[static_cast<std::size_t>(s * nRegion + site)]);
      }
      out.push_back(total);
    }
    return out;
  }

 private:
  CpeGrid grid_;
  FeatureOperator features_;
  BigFusionOperator fusion_;
  std::vector<float> featureBuffer_;
};

class SunwayEnergyModelOracle : public ::testing::TestWithParam<double> {
 protected:
  SunwayEnergyModelOracle()
      : cet_(kLatticeConstantFe, GetParam()), net_(cet_),
        table_(net_.distances(), standardPqSets()),
        network_({64, 16, 16, 1}) {
    Rng rng(43);
    network_.initHe(rng);
    for (int li = 0; li < network_.numLayers(); ++li)
      for (double& b : network_.layer(li).bias) b = rng.uniform() - 0.5;
    std::vector<double> shift(64), scale(64);
    for (std::size_t c = 0; c < shift.size(); ++c) {
      shift[c] = rng.uniform();
      scale[c] = 0.5 + rng.uniform();
    }
    network_.setInputTransform(shift, scale);
  }

  Cet cet_;
  Net net_;
  FeatureTable table_;
  Network network_;
};

TEST_P(SunwayEnergyModelOracle, SingleSystemEqualsFullRows) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  SunwayFullRows reference(net_, table_, network_);
  Rng rng(303);
  expectSingleSystemsEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return reference.energies(vet, n);
  });
}

TEST_P(SunwayEnergyModelOracle, MixedSizeBatchesEqualFullRows) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  SunwayFullRows reference(net_, table_, network_);
  Rng rng(404);
  expectBatchesEqual(model, cet_, net_, rng, [&](const Vet& vet, int n) {
    return reference.energies(vet, n);
  });
}

// The row memo (DESIGN §24). Every energy it serves must be bitwise the
// full-row pipeline's, whether the rows hit, miss, repeat within a batch
// or were cleared at the table's bound.

// One batch through the model, each system checked against the full-row
// reference; returns the batch's energies.
std::vector<std::vector<double>> expectBatchEqualsFullRows(
    SunwayEnergyModel& model, SunwayFullRows& reference,
    std::vector<Vet>& vets, int numFinal) {
  std::vector<Vet*> ptrs;
  for (Vet& v : vets) ptrs.push_back(&v);
  const auto batch = model.stateEnergiesBatch(ptrs, numFinal);
  EXPECT_EQ(batch.size(), vets.size());
  for (std::size_t i = 0; i < vets.size() && i < batch.size(); ++i) {
    const std::vector<double> expected = reference.energies(vets[i], numFinal);
    EXPECT_EQ(batch[i], expected)
        << "system " << i << " of " << vets.size() << ", " << numFinal
        << " final states";
  }
  return batch;
}

std::uint64_t counter(const char* name) {
  return telemetry::metrics().counter(name).value();
}

TEST_P(SunwayEnergyModelOracle, MemoColdThenWarmEqualsFullRows) {
  // Batches of 1 to 8 systems with 0 to 8 final states, evaluated on a
  // cold model, then again: the second pass is served by the memo alone
  // (no hit is missed, no operator launches) and is bitwise the first
  // and a fresh model's.
  SunwayEnergyModel model(cet_, net_, table_, network_);
  SunwayFullRows reference(net_, table_, network_);
  Rng rng(505);
  const int sizes[] = {1, 2, 5, 8, 3, 5, 1, 4, 2};
  std::vector<std::vector<Vet>> batches;
  for (const int size : sizes) {
    batches.emplace_back();
    for (int i = 0; i < size; ++i)
      batches.back().push_back(randomSystem(rng, cet_, net_));
  }
  std::vector<std::vector<std::vector<double>>> cold;
  std::size_t rows = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const int numFinal = static_cast<int>(b);
    cold.push_back(expectBatchEqualsFullRows(model, reference, batches[b],
                                             numFinal));
    rows += batches[b].size() *
            RowPlan::hopLocal(net_).systemRows(numFinal);
  }
  const SunwayEnergyModel::MemoStats afterCold = model.memoStats();
  EXPECT_EQ(afterCold.hits + afterCold.misses, rows);
  EXPECT_GT(afterCold.misses, 0u);
  EXPECT_EQ(afterCold.evictions, 0u);

  const std::uint64_t launches = model.grid().launchCount();
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto warm = expectBatchEqualsFullRows(model, reference, batches[b],
                                                static_cast<int>(b));
    EXPECT_EQ(warm, cold[b]) << "batch " << b;
    SunwayEnergyModel fresh(cet_, net_, table_, network_);
    std::vector<Vet*> ptrs;
    for (Vet& v : batches[b]) ptrs.push_back(&v);
    EXPECT_EQ(warm, fresh.stateEnergiesBatch(ptrs, static_cast<int>(b)))
        << "batch " << b;
  }
  EXPECT_EQ(model.grid().launchCount(), launches);
  EXPECT_EQ(model.memoStats().misses, afterCold.misses);
  EXPECT_EQ(model.memoStats().hits, afterCold.hits + rows);
}

TEST_P(SunwayEnergyModelOracle, MemoMixedHitAndMissBatchEqualsFullRows) {
  // A batch mixing warm systems with new ones, one of them twice:
  // exactly the systems with a miss are dispatched, duplicate included,
  // and the energy.memo.* counters count every row looked up.
  telemetry::ScopedEnable on;
  telemetry::metrics().reset();
  SunwayEnergyModel model(cet_, net_, table_, network_);
  SunwayFullRows reference(net_, table_, network_);
  const std::size_t systemRows =
      RowPlan::hopLocal(net_).systemRows(kNumJumpDirections);
  Rng rng(606);
  std::vector<Vet> warm = {randomSystem(rng, cet_, net_),
                           randomSystem(rng, cet_, net_)};
  expectBatchEqualsFullRows(model, reference, warm, kNumJumpDirections);
  const std::uint64_t dispatched = counter("sunway.batch.systems_total");
  EXPECT_EQ(dispatched, 2u);

  const Vet fresh = randomSystem(rng, cet_, net_);
  const Vet other = randomSystem(rng, cet_, net_);
  std::vector<Vet> mixed = {warm[0], fresh, warm[1], other, fresh};
  expectBatchEqualsFullRows(model, reference, mixed, kNumJumpDirections);
  EXPECT_EQ(counter("sunway.batch.systems_total"), dispatched + 3);
  EXPECT_EQ(counter("sunway.batch.dispatches"), 2u);
  EXPECT_EQ(counter("energy.memo.hits") + counter("energy.memo.misses"),
            7 * systemRows);
  EXPECT_GT(counter("energy.memo.misses"), 0u);
  EXPECT_EQ(counter("energy.memo.evictions"), 0u);
  EXPECT_EQ(counter("energy.memo.hits"), model.memoStats().hits);
  EXPECT_EQ(counter("energy.memo.misses"), model.memoStats().misses);

  // Now every one of them hits, the duplicate too.
  const std::uint64_t misses = counter("energy.memo.misses");
  expectBatchEqualsFullRows(model, reference, mixed, kNumJumpDirections);
  EXPECT_EQ(counter("sunway.batch.dispatches"), 2u);
  EXPECT_EQ(counter("energy.memo.misses"), misses);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, SunwayEnergyModelOracle,
                         ::testing::Values(4.0, kDefaultCutoff));

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

TEST(SunwayEnergyModelMemo, HighCopperAlloyClearsTheTableAndStaysExact) {
  // At 6.5 A a row has 112 neighbours (4 key words) and a ~50% Cu
  // environment repeats almost no pattern, so the memo doubles up to
  // its fixed bound (2^16 slots, half of them usable) and clears there. Energies stay exact across the
  // clear, and systems whose rows were cleared miss and are recomputed.
  const Cet cet(kLatticeConstantFe, kDefaultCutoff);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  Network network({64, 16, 16, 1});
  Rng wrng(43);
  network.initHe(wrng);
  SunwayEnergyModel model(cet, net, table, network);
  SunwayFullRows reference(net, table, network);
  telemetry::ScopedEnable on;
  telemetry::metrics().reset();

  Rng rng(707);
  auto highCopper = [&] {
    Vet vet = randomSystem(rng, cet, net);
    for (int id = 1; id < cet.nAll(); ++id)
      if (vet[id] == Species::kFe && rng.uniform() < 0.3)
        vet.set(id, Species::kCu);
    return vet;
  };
  std::vector<Vet> first;
  for (int i = 0; i < 4; ++i) first.push_back(highCopper());
  expectBatchEqualsFullRows(model, reference, first, kNumJumpDirections);
  for (int batch = 0; batch < 40 && model.memoStats().evictions == 0;
       ++batch) {
    std::vector<Vet> vets;
    for (int i = 0; i < 4; ++i) vets.push_back(highCopper());
    expectBatchEqualsFullRows(model, reference, vets, batch % 2 == 0
                                                          ? kNumJumpDirections
                                                          : 5);
  }
  ASSERT_EQ(model.memoStats().evictions, 1u);
  EXPECT_EQ(counter("energy.memo.evictions"), 1u);

  const std::uint64_t misses = model.memoStats().misses;
  expectBatchEqualsFullRows(model, reference, first, kNumJumpDirections);
  EXPECT_GT(model.memoStats().misses, misses);
}

// One model shared by the four ranks of a 2x2x1 grid, threaded against
// inline: the memo lives under the engine's model mutex, so the
// trajectory is bit-identical, from a cold model and from a warm one.
TEST(SunwayEnergyModelMemo, SharedModelThreadedEqualsInline) {
  const Cet cet(2.87, 4.0);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  Network network({64, 16, 16, 1});
  Rng rng(7);
  network.initHe(rng);
  struct Run {
    std::uint32_t hash;
    std::uint64_t events;
    std::uint64_t discarded;
    std::uint64_t time;
    bool operator==(const Run&) const = default;
  };
  auto run = [&](SunwayEnergyModel& model, bool threaded) {
    LatticeState state(BccLattice(16, 16, 16, 2.87));
    Rng arng(51);
    state.randomAlloy(0.12, 8, arng);
    ParallelConfig cfg;
    cfg.seed = 61;
    cfg.tStop = 1e-7;
    cfg.rankGrid = {2, 2, 1};
    cfg.threaded = threaded;
    ParallelEngine engine(state, model, cet, cfg);
    for (int c = 0; c < 8; ++c) engine.runCycle();
    return Run{engine.assembleGlobalState().contentHash(),
               engine.totalEvents(), engine.discardedEvents(),
               bits(engine.time())};
  };
  SunwayEnergyModel inlineModel(cet, net, table, network);
  SunwayEnergyModel threadedModel(cet, net, table, network);
  const Run inlineRun = run(inlineModel, false);
  EXPECT_GT(inlineRun.events, 0u);
  EXPECT_TRUE(run(threadedModel, true) == inlineRun);
  EXPECT_GT(inlineModel.memoStats().hits, 0u);
  EXPECT_TRUE(run(inlineModel, true) == inlineRun);  // warm
}


// Golden fingerprint of a parallel trajectory driven by the Sunway
// backend: 2x1x1 in-process ranks, 16^3 cells, 12% Cu, 8 vacancies,
// cutoff 4.0 A, a fixed-seed He-initialized {64,16,16,1} network, engine
// seed 61, t_stop 1e-7 s, 16 cycles. Any change to the feature or
// big-fusion kernels, the row set they are fed or the per-state
// reduction that moves a single bit of an energy moves these pins.
constexpr std::uint32_t kGoldenSunwayHash = 0x729550ccu;
constexpr std::uint64_t kGoldenSunwayEvents = 58;
constexpr std::uint64_t kGoldenSunwayDiscarded = 7;
constexpr std::uint64_t kGoldenSunwayTime = 0x3ebad7f29abcaf46ull;

TEST(SunwayNnpGolden, ParallelTrajectoryBitIdentical) {
  const Cet cet(2.87, 4.0);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  Network network({64, 16, 16, 1});
  Rng rng(7);
  network.initHe(rng);
  LatticeState state(BccLattice(16, 16, 16, 2.87));
  Rng arng(51);
  state.randomAlloy(0.12, 8, arng);
  SunwayEnergyModel model(cet, net, table, network);
  ParallelConfig cfg;
  cfg.seed = 61;
  cfg.tStop = 1e-7;
  cfg.rankGrid = {2, 1, 1};
  ParallelEngine engine(state, model, cet, cfg);
  for (int c = 0; c < 16; ++c) engine.runCycle();
  EXPECT_EQ(engine.assembleGlobalState().contentHash(), kGoldenSunwayHash);
  EXPECT_EQ(engine.totalEvents(), kGoldenSunwayEvents);
  EXPECT_EQ(engine.discardedEvents(), kGoldenSunwayDiscarded);
  EXPECT_EQ(bits(engine.time()), kGoldenSunwayTime);
}

}  // namespace
}  // namespace tkmc
