#include "tabulation/net.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/constants.hpp"

namespace tkmc {
namespace {

TEST(Net, EveryRegionSiteHasNLocalNeighbors) {
  const Cet cet(kLatticeConstantFe, kDefaultCutoff);
  const Net net(cet);
  ASSERT_EQ(net.regionSites(), cet.nRegion());
  for (int s = 0; s < net.regionSites(); ++s)
    EXPECT_EQ(net.neighbors(s).size(),
              static_cast<std::size_t>(cet.nLocal()));
  EXPECT_EQ(net.entryCount(),
            static_cast<std::size_t>(cet.nRegion()) * cet.nLocal());
}

TEST(Net, EightUniqueDistancesAtStandardCutoff) {
  const Cet cet(kLatticeConstantFe, kDefaultCutoff);
  const Net net(cet);
  ASSERT_EQ(net.distances().size(), 8u);  // 8 shells within 6.5 A
  for (std::size_t i = 1; i < net.distances().size(); ++i)
    EXPECT_LT(net.distances()[i - 1], net.distances()[i]);
  EXPECT_NEAR(net.distances().front(),
              kLatticeConstantFe * std::sqrt(3.0) / 2.0, 1e-12);  // 1NN
  EXPECT_LE(net.distances().back(), kDefaultCutoff);
}

TEST(Net, EntriesReferenceValidCetIdsAndDistances) {
  const Cet cet(kLatticeConstantFe, kDefaultCutoff);
  const Net net(cet);
  for (int s = 0; s < net.regionSites(); ++s)
    for (const Net::Entry& e : net.neighbors(s)) {
      ASSERT_GE(e.siteId, 0);
      ASSERT_LT(e.siteId, cet.nAll());
      ASSERT_GE(e.distIndex, 0);
      ASSERT_LT(static_cast<std::size_t>(e.distIndex), net.distances().size());
    }
}

TEST(Net, StoredDistanceMatchesGeometry) {
  const Cet cet(kLatticeConstantFe, kDefaultCutoff);
  const Net net(cet);
  for (int s = 0; s < net.regionSites(); s += 17) {
    for (const Net::Entry& e : net.neighbors(s)) {
      const Vec3i d = cet.site(e.siteId) - cet.site(s);
      const double r = std::sqrt(static_cast<double>(d.norm2())) *
                       kLatticeConstantFe / 2.0;
      EXPECT_NEAR(net.distances()[static_cast<std::size_t>(e.distIndex)], r,
                  1e-12);
    }
  }
}

TEST(Net, NeighborRelationIsSymmetricWithinRegion) {
  const Cet cet(kLatticeConstantFe, 4.0);
  const Net net(cet);
  for (int s = 0; s < net.regionSites(); ++s)
    for (const Net::Entry& e : net.neighbors(s)) {
      if (e.siteId >= cet.nRegion()) continue;  // outer sites have no rows
      bool reciprocal = false;
      for (const Net::Entry& back : net.neighbors(e.siteId))
        if (back.siteId == s) {
          reciprocal = true;
          EXPECT_EQ(back.distIndex, e.distIndex);
          break;
        }
      EXPECT_TRUE(reciprocal);
    }
}

TEST(Net, NoSelfNeighbors) {
  const Cet cet(kLatticeConstantFe, kDefaultCutoff);
  const Net net(cet);
  for (int s = 0; s < net.regionSites(); ++s)
    for (const Net::Entry& e : net.neighbors(s)) EXPECT_NE(e.siteId, s);
}

// A hop to target t_k swaps the species of sites 0 and t_k only, so the
// sites it can change are those two plus every site within the cutoff
// of either. Checked against the lattice geometry, not the NET rows.
TEST(Net, AffectedSitesMatchLatticeGeometry) {
  for (const double cutoff : {4.0, kDefaultCutoff}) {
    const Cet cet(kLatticeConstantFe, cutoff);
    const Net net(cet);
    auto within = [&](Vec3i a, Vec3i b) {
      const Vec3i d = a - b;
      return std::sqrt(static_cast<double>(d.norm2())) * kLatticeConstantFe /
                 2.0 <=
             cutoff;
    };
    for (int k = 0; k < kNumJumpDirections; ++k) {
      const int target = Cet::jumpTargetId(k);
      std::vector<int> expected;
      for (int s = 0; s < cet.nRegion(); ++s)
        if (s == 0 || s == target || within(cet.site(s), cet.site(0)) ||
            within(cet.site(s), cet.site(target)))
          expected.push_back(s);
      const auto affected = net.affectedSites(k);
      EXPECT_EQ(std::vector<int>(affected.begin(), affected.end()), expected)
          << "cutoff " << cutoff << ", direction " << k;
    }
  }
}

TEST(Net, AffectedSiteCountsAtBothCutoffs) {
  struct Expected {
    double cutoff;
    int nRegion;
    std::size_t affected;
  };
  for (const Expected& e : {Expected{4.0, 59, 22},
                            Expected{kDefaultCutoff, 253, 144}}) {
    const Cet cet(kLatticeConstantFe, e.cutoff);
    const Net net(cet);
    ASSERT_EQ(cet.nRegion(), e.nRegion);
    for (int k = 0; k < kNumJumpDirections; ++k) {
      const auto affected = net.affectedSites(k);
      EXPECT_EQ(affected.size(), e.affected) << "direction " << k;
      EXPECT_TRUE(std::is_sorted(affected.begin(), affected.end()));
      EXPECT_EQ(std::adjacent_find(affected.begin(), affected.end()),
                affected.end());
      EXPECT_GE(affected.front(), 0);
      EXPECT_LT(affected.back(), cet.nRegion());
    }
  }
}

}  // namespace
}  // namespace tkmc
