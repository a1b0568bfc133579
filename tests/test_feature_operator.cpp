#include "sunway/feature_operator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.hpp"
#include "tabulation/region_features.hpp"

namespace tkmc {
namespace {

// Float oracle of the tabulated descriptor, independent of the CPE
// kernel: per (system, state, site) row, a zeroed feature row gets each
// NET entry's TABLE row added, in NET order, to the block of the species
// the entry sees; vacancies add nothing. Final state k swaps VET[0] with
// the jump target, as in the paper.
std::vector<float> referenceFeatures(const Net& net, const FeatureTable& table,
                                     const std::vector<Vet>& vets,
                                     int numFinal) {
  const int numPq = table.numPq();
  const std::size_t d = static_cast<std::size_t>(numPq) * kNumElements;
  const int nRegion = net.regionSites();
  std::vector<float> out;
  for (Vet vet : vets)
    for (int state = 0; state <= numFinal; ++state) {
      if (state > 0) vet.swap(0, Cet::jumpTargetId(state - 1));
      for (int site = 0; site < nRegion; ++site) {
        std::vector<float> row(d, 0.0f);
        for (const Net::Entry& e : net.neighbors(site)) {
          const Species sp = vet[e.siteId];
          if (sp == Species::kVacancy) continue;
          for (int k = 0; k < numPq; ++k)
            row[static_cast<std::size_t>(sp) * numPq + k] +=
                static_cast<float>(table.value(e.distIndex, k));
        }
        out.insert(out.end(), row.begin(), row.end());
      }
      if (state > 0) vet.swap(0, Cet::jumpTargetId(state - 1));
    }
  return out;
}

// Random environment: ~20% Cu and ~6% extra vacancies, the central
// vacancy at VET[0], and about half the systems with a vacancy forced
// onto a jump target (a hop onto it then swaps vacancy with vacancy).
Vet randomVet(int nAll, Rng& rng) {
  Vet vet(nAll);
  for (int id = 1; id < nAll; ++id) {
    const double u = rng.uniform();
    vet.set(id, u < 0.06   ? Species::kVacancy
                : u < 0.26 ? Species::kCu
                           : Species::kFe);
  }
  vet.set(0, Species::kVacancy);
  if (rng.uniform() < 0.5)
    vet.set(Cet::jumpTargetId(static_cast<int>(
                rng.uniformBelow(kNumJumpDirections))),
            Species::kVacancy);
  return vet;
}

class FeatureOperatorTest : public ::testing::Test {
 protected:
  FeatureOperatorTest()
      : cet_(2.87, 4.0), net_(cet_),
        table_(net_.distances(), standardPqSets()),
        lattice_(12, 12, 12, 2.87), state_(lattice_) {
    Rng rng(55);
    state_.randomAlloy(0.25, 0, rng);
    state_.setSpeciesAt(center_, Species::kVacancy);
  }

  Cet cet_;
  Net net_;
  FeatureTable table_;
  BccLattice lattice_;
  LatticeState state_;
  Vec3i center_{6, 6, 6};
};

TEST_F(FeatureOperatorTest, MatchesSerialReferenceForAllStates) {
  CpeGrid grid;
  const FeatureOperator op(net_, table_, grid);
  const RegionFeatures reference(net_, table_);
  Vet vet = Vet::gather(cet_, state_, center_);

  std::vector<float> cpeOut;
  op.compute(vet, kNumJumpDirections, cpeOut);
  std::vector<double> refOut;
  Vet refVet = vet;
  reference.computeStates(refVet, kNumJumpDirections, refOut);

  ASSERT_EQ(cpeOut.size(), refOut.size());
  for (std::size_t i = 0; i < refOut.size(); ++i)
    ASSERT_NEAR(cpeOut[i], refOut[i], 2e-4) << "index " << i;
}

TEST_F(FeatureOperatorTest, LeavesInputVetUntouched) {
  CpeGrid grid;
  const FeatureOperator op(net_, table_, grid);
  const Vet vet = Vet::gather(cet_, state_, center_);
  const std::vector<Species> snapshot = vet.data();
  std::vector<float> out;
  op.compute(vet, kNumJumpDirections, out);
  EXPECT_EQ(vet.data(), snapshot);
}

TEST_F(FeatureOperatorTest, ChargesDmaTrafficAndFlops) {
  CpeGrid grid;
  const FeatureOperator op(net_, table_, grid);
  const Vet vet = Vet::gather(cet_, state_, center_);
  std::vector<float> out;
  op.compute(vet, kNumJumpDirections, out);
  const Traffic t = grid.collectTraffic();
  EXPECT_GT(t.mainReadBytes, 0u);
  // Output features must be written back exactly once.
  EXPECT_EQ(t.mainWriteBytes, out.size() * sizeof(float));
  EXPECT_GT(t.flops, 0u);
}

TEST_F(FeatureOperatorTest, WorkingSetFitsLdm) {
  CpeGrid grid;
  const FeatureOperator op(net_, table_, grid);
  const Vet vet = Vet::gather(cet_, state_, center_);
  std::vector<float> out;
  op.compute(vet, kNumJumpDirections, out);
  EXPECT_LE(grid.maxLdmHighWater(), grid.spec().ldmBytes);
}

TEST_F(FeatureOperatorTest, FewerFinalStatesProduceSmallerOutput) {
  CpeGrid grid;
  const FeatureOperator op(net_, table_, grid);
  const Vet vet = Vet::gather(cet_, state_, center_);
  std::vector<float> all, initialOnly;
  op.compute(vet, kNumJumpDirections, all);
  op.compute(vet, 0, initialOnly);
  EXPECT_EQ(all.size(), initialOnly.size() * 9);
  // Initial-state block identical.
  for (std::size_t i = 0; i < initialOnly.size(); ++i)
    EXPECT_EQ(all[i], initialOnly[i]);
}

// The rows `plan` lists, in its layout, out of the oracle's full
// [system][state][site] feature matrix.
std::vector<float> planRows(const std::vector<float>& full, const RowPlan& plan,
                            std::size_t numSystems, int numFinal,
                            std::size_t d) {
  const std::size_t stateFloats =
      static_cast<std::size_t>(plan.regionSites()) * d;
  std::vector<float> out;
  const float* state = full.data();
  for (std::size_t sys = 0; sys < numSystems; ++sys)
    for (int s = 0; s <= numFinal; ++s, state += stateFloats)
      for (const int site : plan.sites(s)) {
        const float* row = state + static_cast<std::size_t>(site) * d;
        out.insert(out.end(), row, row + d);
      }
  return out;
}

// Runs computeBatch over numFinal 0..8 and batches of 1 to 40 random
// systems with the row plan `plan`, asserting bit-equality with the
// float oracle's rows; returns the accumulated traffic and modeled
// seconds.
struct SweepTotals {
  Traffic traffic;
  double modeledSeconds = 0.0;
};

SweepTotals sweepAgainstReference(const Cet& cet, const Net& net,
                                  const FeatureTable& table, CpeGrid& grid,
                                  const RowPlan& plan) {
  const FeatureOperator op(net, table, grid, plan);
  Rng rng(2024);
  SweepTotals totals;
  for (int numFinal = 0; numFinal <= kNumJumpDirections; ++numFinal)
    for (int batch : {1, 2, 5, 17, 40}) {
      SCOPED_TRACE(::testing::Message()
                   << "numFinal " << numFinal << " batch " << batch);
      std::vector<Vet> vets;
      for (int i = 0; i < batch; ++i) vets.push_back(randomVet(cet.nAll(), rng));
      std::vector<const Vet*> ptrs;
      for (const Vet& vet : vets) ptrs.push_back(&vet);
      std::vector<float> out;
      op.computeBatch(ptrs, numFinal, out);
      const std::vector<float> expected =
          planRows(referenceFeatures(net, table, vets, numFinal), plan,
                   vets.size(), numFinal, static_cast<std::size_t>(op.dim()));
      EXPECT_EQ(out.size(), expected.size());
      if (out.size() != expected.size()) return totals;
      for (std::size_t i = 0; i < out.size(); ++i)
        if (std::bit_cast<std::uint32_t>(out[i]) !=
            std::bit_cast<std::uint32_t>(expected[i])) {
          ADD_FAILURE() << "index " << i << ": " << out[i] << " vs "
                        << expected[i];
          return totals;
        }
      totals.traffic += grid.collectTraffic();
      totals.modeledSeconds += grid.collectModeledSeconds();
    }
  return totals;
}

TEST_F(FeatureOperatorTest, BatchIsBitExactAgainstFloatReference) {
  CpeGrid grid;
  const SweepTotals totals =
      sweepAgainstReference(cet_, net_, table_, grid, RowPlan::full(net_));
  // Pinned accounting: the kernel's inner loop may change; the modeled
  // CPE traffic, arithmetic, time and scratchpad footprint may not.
  EXPECT_EQ(totals.traffic.mainReadBytes, 6661395u);
  EXPECT_EQ(totals.traffic.mainWriteBytes, 44179200u);
  EXPECT_EQ(totals.traffic.rmaBytes, 0u);
  EXPECT_EQ(totals.traffic.flops, 70884480u);
  EXPECT_DOUBLE_EQ(totals.modeledSeconds, 0.0014429803710937497);
  // The scratchpad plan too. (The measured high-water mark also carries
  // the host arena's base misalignment, so it is only bounded here.)
  const FeatureOperator op(net_, table_, grid);
  EXPECT_EQ(op.batchWorkingSetBytes(1 + kNumJumpDirections, cet_.nAll()),
            2816u);
  EXPECT_LE(grid.maxLdmHighWater(), 2816u + 63u);
}

TEST_F(FeatureOperatorTest, HopLocalBatchIsBitExactAgainstFloatReference) {
  // The same sweep over only the rows a hop changes: every read of the
  // resident TABLE, NET rows and VETs stays, while feature writes follow
  // the rows (1,323 of 2,655 per system over numFinal 0..8, 235 of 531
  // at numFinal 8) and so, roughly, do the flops.
  CpeGrid grid;
  const SweepTotals totals =
      sweepAgainstReference(cet_, net_, table_, grid, RowPlan::hopLocal(net_));
  EXPECT_EQ(totals.traffic.mainReadBytes, 6661395u);
  EXPECT_EQ(totals.traffic.mainWriteBytes, 22014720u);
  EXPECT_EQ(totals.traffic.rmaBytes, 0u);
  EXPECT_EQ(totals.traffic.flops, 34584896u);
  EXPECT_DOUBLE_EQ(totals.modeledSeconds, 0.0010100803710937504);
  // Site 0 is affected by every hop, so its CPE still owns 9 rows at
  // 4.0 A and the working set is the full plan's.
  const FeatureOperator op(net_, table_, grid, RowPlan::hopLocal(net_));
  EXPECT_EQ(op.batchWorkingSetBytes(1 + kNumJumpDirections, cet_.nAll()),
            2816u);
  EXPECT_LE(grid.maxLdmHighWater(), 2816u + 63u);
}

// Descriptor widths that leave the 32-wide register slabs ragged: the
// scalar tail must keep the same summation order.
class FeatureOperatorWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(FeatureOperatorWidthSweep, BitExactAgainstFloatReference) {
  const Cet cet(2.87, 4.0);
  const Net net(cet);
  std::vector<PqSet> pq;
  for (int i = 0; i < GetParam(); ++i)
    pq.push_back({4.2 - 0.05 * i, 1.85 + 0.03 * i});
  const FeatureTable table(net.distances(), pq);
  for (const RowPlan& plan : {RowPlan::full(net), RowPlan::hopLocal(net)}) {
    CpeGrid grid;
    sweepAgainstReference(cet, net, table, grid, plan);
  }
}

INSTANTIATE_TEST_SUITE_P(NumPq, FeatureOperatorWidthSweep,
                         ::testing::Values(1, 3, 4, 5, 33, 37, 68));

TEST_F(FeatureOperatorTest, StandardCutoffAlsoFitsLdm) {
  const Cet bigCet(2.87, kDefaultCutoff);
  const Net bigNet(bigCet);
  const FeatureTable bigTable(bigNet.distances(), standardPqSets());
  // Need a box large enough for the 6.5 A vacancy system.
  BccLattice lat(24, 24, 24, 2.87);
  LatticeState st(lat);
  Rng rng(66);
  st.randomAlloy(0.1, 0, rng);
  st.setSpeciesAt({12, 12, 12}, Species::kVacancy);
  CpeGrid grid;
  const FeatureOperator op(bigNet, bigTable, grid);
  const Vet vet = Vet::gather(bigCet, st, {12, 12, 12});
  std::vector<float> out;
  op.compute(vet, kNumJumpDirections, out);
  EXPECT_EQ(out.size(), 9u * 253u * 64u);
  EXPECT_LE(grid.maxLdmHighWater(), grid.spec().ldmBytes);
}

}  // namespace
}  // namespace tkmc
