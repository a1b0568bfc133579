// Batched vacancy-system evaluation pipeline (EnergyModel::
// stateEnergiesBatch and the engines' collect-then-dispatch refresh).
//
// The acceptance bar is bitwise: a batch over N systems must return
// exactly what N per-system calls return, in order, for the Sunway CPE
// backend and the double-precision reference backend alike, and engines
// driven through the batched refresh must walk bit-identical
// trajectories (same RNG draw consumption) as the loop-based default.

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "kmc/nnp_energy_model.hpp"
#include "kmc/serial_engine.hpp"
#include "kmc/vacancy_cache.hpp"
#include "sunway/sunway_energy_model.hpp"

namespace tkmc {
namespace {

class BatchPipelineTest : public ::testing::Test {
 protected:
  BatchPipelineTest()
      : cet_(2.87, 4.0), net_(cet_),
        table_(net_.distances(), standardPqSets()), network_({64, 16, 16, 1}),
        lattice_(14, 14, 14, 2.87), state_(lattice_) {
    Rng rng(7);
    network_.initHe(rng);
    Rng arng(8);
    state_.randomAlloy(0.15, 6, arng);
  }

  std::vector<Vet> gatherAll() const {
    std::vector<Vet> vets;
    for (const Vec3i& vac : state_.vacancies())
      vets.push_back(Vet::gather(cet_, state_, lattice_.wrap(vac)));
    return vets;
  }

  Cet cet_;
  Net net_;
  FeatureTable table_;
  Network network_;
  BccLattice lattice_;
  LatticeState state_;
};

// Evaluates a batch one system at a time through any backend — the
// per-system reference the batched dispatch must match.
class LoopedBatchModel : public EnergyModel {
 public:
  explicit LoopedBatchModel(EnergyModel& inner) : inner_(inner) {}

  std::vector<double> stateEnergies(const LatticeState& state, Vec3i center,
                                    int numFinal) override {
    return inner_.stateEnergies(state, center, numFinal);
  }
  std::vector<double> stateEnergiesFromVet(Vet& vet, int numFinal) override {
    return inner_.stateEnergiesFromVet(vet, numFinal);
  }
  std::vector<std::vector<double>> stateEnergiesBatch(
      std::span<Vet* const> vets, int numFinal) override {
    std::vector<std::vector<double>> energies;
    for (Vet* vet : vets)
      energies.push_back(inner_.stateEnergiesFromVet(*vet, numFinal));
    return energies;
  }
  bool supportsVet() const override { return inner_.supportsVet(); }
  const char* name() const override { return "looped-batch"; }

 private:
  EnergyModel& inner_;
};

TEST_F(BatchPipelineTest, SunwayBatchMatchesPerSystemBitwise) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  std::vector<Vet> vets = gatherAll();
  ASSERT_GE(vets.size(), 3u);

  std::vector<std::vector<double>> perSystem;
  for (Vet& vet : vets)
    perSystem.push_back(model.stateEnergiesFromVet(vet, kNumJumpDirections));

  std::vector<Vet*> ptrs;
  for (Vet& vet : vets) ptrs.push_back(&vet);
  const auto batched = model.stateEnergiesBatch(ptrs, kNumJumpDirections);

  ASSERT_EQ(batched.size(), perSystem.size());
  for (std::size_t i = 0; i < batched.size(); ++i)
    EXPECT_EQ(batched[i], perSystem[i]) << "system " << i;  // bitwise
}

TEST_F(BatchPipelineTest, ReferenceNnpBatchMatchesPerSystemBitwise) {
  NnpEnergyModel model(cet_, net_, table_, network_);
  std::vector<Vet> vets = gatherAll();

  std::vector<std::vector<double>> perSystem;
  for (Vet& vet : vets)
    perSystem.push_back(model.stateEnergiesFromVet(vet, kNumJumpDirections));

  std::vector<Vet*> ptrs;
  for (Vet& vet : vets) ptrs.push_back(&vet);
  const auto batched = model.stateEnergiesBatch(ptrs, kNumJumpDirections);

  ASSERT_EQ(batched.size(), perSystem.size());
  for (std::size_t i = 0; i < batched.size(); ++i)
    EXPECT_EQ(batched[i], perSystem[i]) << "system " << i;  // bitwise
}

TEST_F(BatchPipelineTest, BatchOfOneEqualsPerSystemPath) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  Vet vet = Vet::gather(cet_, state_, lattice_.wrap(state_.vacancies()[0]));
  Vet copy = vet;
  const auto single = model.stateEnergiesFromVet(vet, kNumJumpDirections);
  Vet* one = &copy;
  const auto batched = model.stateEnergiesBatch({&one, 1}, kNumJumpDirections);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched.front(), single);
}

TEST_F(BatchPipelineTest, EmptyBatchReturnsNothing) {
  SunwayEnergyModel model(cet_, net_, table_, network_);
  EXPECT_TRUE(
      model.stateEnergiesBatch(std::span<Vet* const>{}, kNumJumpDirections)
          .empty());
}

TEST_F(BatchPipelineTest, MixedDirtySetAfterHopsMatchesPerSystem) {
  // Drive the cache through real hops so the dirty set is a proper
  // subset (patched neighbours + the re-gathered hopped system), then
  // compare batched vs per-system energies over exactly that set.
  SunwayEnergyModel model(cet_, net_, table_, network_);
  VacancyCache cache(cet_, lattice_);
  cache.rebuild(state_);
  Rng rng(21);
  for (int hop = 0; hop < 10; ++hop) {
    const int v = static_cast<int>(rng.uniformBelow(
        static_cast<std::uint64_t>(state_.vacancies().size())));
    const Vec3i from =
        lattice_.wrap(state_.vacancies()[static_cast<std::size_t>(v)]);
    const Vec3i to = lattice_.wrap(
        from + BccLattice::firstNeighborOffsets()[rng.uniformBelow(8)]);
    if (state_.speciesAt(to) == Species::kVacancy) continue;
    state_.hopVacancy(from, to);
    cache.applyHop(state_, v, from, to);
  }

  std::vector<int> dirty;
  std::vector<Vet*> ptrs;
  for (int v = 0; v < cache.size(); ++v) {
    if (!cache.isDirty(v)) continue;
    dirty.push_back(v);
    ptrs.push_back(&cache.vet(v));
  }
  ASSERT_FALSE(dirty.empty());

  const auto batched = model.stateEnergiesBatch(ptrs, kNumJumpDirections);
  ASSERT_EQ(batched.size(), dirty.size());
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    const auto single =
        model.stateEnergiesFromVet(cache.vet(dirty[i]), kNumJumpDirections);
    EXPECT_EQ(batched[i], single) << "dirty system " << dirty[i];
  }
}

TEST_F(BatchPipelineTest, EngineTrajectoryIdenticalToLoopedDispatch) {
  // Two engines over identical lattices and seeds: one drives the Sunway
  // backend's batched dispatch, the other forces the loop-based default
  // through a wrapper. Same events, same times, same RNG consumption.
  LatticeState batchedState(lattice_);
  LatticeState loopedState(lattice_);
  {
    Rng a(8);
    batchedState.randomAlloy(0.15, 6, a);
    Rng b(8);
    loopedState.randomAlloy(0.15, 6, b);
  }
  SunwayEnergyModel batchedModel(cet_, net_, table_, network_);
  SunwayEnergyModel innerModel(cet_, net_, table_, network_);
  LoopedBatchModel loopedModel(innerModel);

  KmcConfig cfg;
  cfg.seed = 42;
  cfg.tEnd = 1e300;
  SerialEngine batched(batchedState, batchedModel, cet_, cfg);
  SerialEngine looped(loopedState, loopedModel, cet_, cfg);

  for (int step = 0; step < 40; ++step) {
    const auto rb = batched.step();
    const auto rl = looped.step();
    ASSERT_EQ(rb.advanced, rl.advanced) << "step " << step;
    if (!rb.advanced) break;
    EXPECT_EQ(rb.vacancyIndex, rl.vacancyIndex) << "step " << step;
    EXPECT_EQ(rb.direction, rl.direction) << "step " << step;
    EXPECT_EQ(rb.from, rl.from) << "step " << step;
    EXPECT_EQ(rb.to, rl.to) << "step " << step;
    EXPECT_EQ(rb.dt, rl.dt) << "step " << step;  // bitwise
  }
  EXPECT_EQ(batched.time(), looped.time());
}

TEST_F(BatchPipelineTest, ModeledDispatchCostAmortizesWithBatchSize) {
  // The modeled SW26010 cost (launch latency + per-run critical path)
  // must strictly favour one batched dispatch over N per-system ones:
  // fewer launches, same traffic. This is the quantity the batch bench
  // reports, so pin its direction here. It calls the operators
  // SunwayEnergyModel dispatches on a memo miss directly: a warm model
  // would answer these systems from its row memo and launch nothing.
  CpeGrid grid;
  FeatureOperator features(net_, table_, grid, RowPlan::hopLocal(net_));
  BigFusionOperator fusion(network_.foldedSnapshot(), grid);
  fusion.loadModel();
  std::vector<float> featureBuffer;
  std::vector<float> energies;
  auto dispatch = [&](std::span<const Vet* const> vets) {
    features.computeBatch(vets, kNumJumpDirections, featureBuffer);
    energies.resize(features.rows().systemRows(kNumJumpDirections) *
                    vets.size());
    fusion.forward(featureBuffer.data(), static_cast<int>(energies.size()),
                   energies.data());
  };
  std::vector<Vet> vets = gatherAll();
  ASSERT_GE(vets.size(), 3u);
  std::vector<const Vet*> ptrs;
  for (const Vet& vet : vets) ptrs.push_back(&vet);

  grid.collectModeledSeconds();
  const std::uint64_t launchesBefore = grid.launchCount();
  for (const Vet* vet : ptrs) dispatch({&vet, 1});
  const double perSystem = grid.collectModeledSeconds();
  const std::uint64_t perSystemLaunches = grid.launchCount() - launchesBefore;

  const std::uint64_t batchedBefore = grid.launchCount();
  dispatch(ptrs);
  const double batched = grid.collectModeledSeconds();
  const std::uint64_t batchedLaunches = grid.launchCount() - batchedBefore;

  EXPECT_LT(batchedLaunches, perSystemLaunches);
  EXPECT_LT(batched, perSystem);
  EXPECT_GT(batched, 0.0);
}

TEST_F(BatchPipelineTest, LdmOverflowFiresWithClearMessage) {
  // A grid whose scratchpads cannot even hold the feature TABLE: the
  // batched dispatch must refuse upfront, naming the working set and the
  // capacity, instead of dying inside the bump allocator — under the
  // full row plan and the hop-local one SunwayEnergyModel runs.
  ArchSpec tiny;
  tiny.ldmBytes = 512;
  for (const RowPlan& plan : {RowPlan::full(net_), RowPlan::hopLocal(net_)}) {
    CpeGrid grid(tiny);
    FeatureOperator op(net_, table_, grid, plan);
    Vet vet = Vet::gather(cet_, state_, lattice_.wrap(state_.vacancies()[0]));
    const Vet* one = &vet;
    std::vector<float> out;
    try {
      op.computeBatch({&one, 1}, kNumJumpDirections, out);
      FAIL() << "expected the LDM working-set require to fire";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("batched feature working set"), std::string::npos)
          << what;
      EXPECT_NE(what.find("exceeds LDM capacity"), std::string::npos) << what;
    }
  }
}

TEST_F(BatchPipelineTest, WorkingSetIsConstantInBatchSize) {
  // LDM residency means the per-CPE working set must not grow with the
  // batch; that is what makes arbitrarily large dirty sets dispatchable.
  std::vector<Vet> vets = gatherAll();
  std::vector<const Vet*> ptrs;
  for (Vet& vet : vets) ptrs.push_back(&vet);
  for (const RowPlan& plan : {RowPlan::full(net_), RowPlan::hopLocal(net_)}) {
    CpeGrid grid;
    FeatureOperator op(net_, table_, grid, plan);
    std::vector<float> out;
    op.computeBatch({ptrs.data(), 1}, kNumJumpDirections, out);
    const std::size_t oneSystem = grid.maxLdmHighWater();
    op.computeBatch(ptrs, kNumJumpDirections, out);
    const std::size_t wholeBatch = grid.maxLdmHighWater();
    EXPECT_EQ(oneSystem, wholeBatch);
    EXPECT_LE(wholeBatch, grid.spec().ldmBytes);
  }
}

TEST(BatchPipelineWorkingSet, FeatureBlockSizedFromOwnedRows) {
  // At 6.5 A each CPE owns 3 or 4 of the 253 region sites, and a final
  // state evaluates only those its hop changes: the most rows one CPE
  // computes for 9 states falls from 36 to 24, and the working set by
  // those 12 rows of 64 floats. The kernel stays within the estimate.
  const Cet cet(2.87, kDefaultCutoff);
  const Net net(cet);
  const FeatureTable table(net.distances(), standardPqSets());
  Vet vet(cet.nAll());
  vet.set(0, Species::kVacancy);
  const Vet* one = &vet;
  const auto workingSet = [&](const RowPlan& plan) {
    CpeGrid grid;
    FeatureOperator op(net, table, grid, plan);
    const std::size_t bytes =
        op.batchWorkingSetBytes(1 + kNumJumpDirections, cet.nAll());
    std::vector<float> out;
    op.computeBatch({&one, 1}, kNumJumpDirections, out);
    EXPECT_LE(grid.maxLdmHighWater(), bytes + 63);
    return bytes;
  };
  EXPECT_EQ(workingSet(RowPlan::full(net)), 13248u);
  EXPECT_EQ(workingSet(RowPlan::hopLocal(net)), 13248u - 12u * 64u * 4u);
}

TEST_F(BatchPipelineTest, BatchRejectsMismatchedVetSizes) {
  CpeGrid grid;
  FeatureOperator op(net_, table_, grid);
  Vet good = Vet::gather(cet_, state_, lattice_.wrap(state_.vacancies()[0]));
  Vet bad(good.size() + 1);
  const Vet* ptrs[2] = {&good, &bad};
  std::vector<float> out;
  EXPECT_THROW(op.computeBatch({ptrs, 2}, kNumJumpDirections, out), Error);
}

}  // namespace
}  // namespace tkmc
