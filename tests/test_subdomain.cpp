#include "parallel/subdomain.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace tkmc {
namespace {

LatticeState randomGlobal(const BccLattice& lat, std::uint64_t seed) {
  LatticeState state(lat);
  Rng rng(seed);
  state.randomAlloy(0.2, 5, rng);
  return state;
}

TEST(Subdomain, LoadFromMirrorsGlobalState) {
  const BccLattice lat(12, 12, 12, 2.87);
  const LatticeState global = randomGlobal(lat, 1);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 3);
  sd.loadFrom(global);
  // Every covered site (owned and ghost) must match the global lattice.
  for (int cz = -3; cz < 9; ++cz)
    for (int cy = -3; cy < 9; ++cy)
      for (int cx = -3; cx < 9; ++cx)
        for (int sub = 0; sub < 2; ++sub) {
          const Vec3i p{2 * cx + sub, 2 * cy + sub, 2 * cz + sub};
          ASSERT_EQ(sd.speciesAt(p), global.speciesAt(p));
        }
}

TEST(Subdomain, OwnsOnlyItsCells) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {6, 0, 0}, {6, 6, 6}, 2);
  EXPECT_TRUE(sd.owns({12, 0, 0}));
  EXPECT_TRUE(sd.owns({23, 11, 11}));
  EXPECT_FALSE(sd.owns({10, 0, 0}));   // ghost (covered, not owned)
  EXPECT_TRUE(sd.covers({10, 0, 0}));
  // Cell x = 2 is outside the extended frame (owned cells 6..11 plus a
  // 2-cell ghost shell reaching wrapped cells 4..13).
  EXPECT_FALSE(sd.covers({4, 12, 12}));
}

TEST(Subdomain, CoversWrapsPeriodically) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  // Ghost cell at x = -1 corresponds to wrapped x-cell 11.
  EXPECT_TRUE(sd.covers({22, 0, 0}));  // == -2 after unwrap
  EXPECT_FALSE(sd.owns({22, 0, 0}));
}

TEST(Subdomain, SetAndGetRoundTrip) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  sd.set({4, 4, 4}, Species::kCu);
  EXPECT_EQ(sd.speciesAt({4, 4, 4}), Species::kCu);
  sd.set({-1, -1, -1}, Species::kVacancy);  // ghost write
  EXPECT_EQ(sd.speciesAt({-1, -1, -1}), Species::kVacancy);
}

TEST(Subdomain, RescanFindsOwnedVacanciesOnly) {
  const BccLattice lat(12, 12, 12, 2.87);
  LatticeState global(lat);
  global.setSpeciesAt({4, 4, 4}, Species::kVacancy);    // owned by (0,0,0)
  global.setSpeciesAt({20, 20, 20}, Species::kVacancy);  // owned elsewhere
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  sd.loadFrom(global);
  ASSERT_EQ(sd.vacancies().size(), 1u);
  EXPECT_EQ(sd.vacancies()[0], (Vec3i{4, 4, 4}));
}

TEST(Subdomain, PackUnpackRoundTrip) {
  const BccLattice lat(12, 12, 12, 2.87);
  const LatticeState global = randomGlobal(lat, 2);
  Subdomain a(lat, {0, 0, 0}, {6, 6, 6}, 2);
  a.loadFrom(global);
  const Vec3i lo{2, 3, 1};
  const Vec3i hi{5, 6, 4};
  const auto payload = a.packCellBox(lo, hi);
  EXPECT_EQ(payload.size(), 3u * 3u * 3u * 2u);
  // Wipe the box, then restore it from the payload.
  Subdomain b = a;
  for (int cz = lo.z; cz < hi.z; ++cz)
    for (int cy = lo.y; cy < hi.y; ++cy)
      for (int cx = lo.x; cx < hi.x; ++cx)
        for (int sub = 0; sub < 2; ++sub)
          b.set({2 * (cx - 2) + sub, 2 * (cy - 2) + sub, 2 * (cz - 2) + sub},
                Species::kFe);
  b.unpackCellBox(lo, hi, payload);
  for (int cz = -2; cz < 8; ++cz)
    for (int cy = -2; cy < 8; ++cy)
      for (int cx = -2; cx < 8; ++cx)
        for (int sub = 0; sub < 2; ++sub) {
          const Vec3i p{2 * cx + sub, 2 * cy + sub, 2 * cz + sub};
          ASSERT_EQ(b.speciesAt(p), a.speciesAt(p));
        }
}

TEST(Subdomain, UnpackRejectsWrongSize) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  EXPECT_THROW(sd.unpackCellBox({0, 0, 0}, {2, 2, 2}, {1, 2, 3}), Error);
}

TEST(Subdomain, OversizedExtendedFrameIsRejected) {
  const BccLattice lat(8, 8, 8, 2.87);
  // 6 + 2*2 = 10 > 8 cells: ambiguous periodic images.
  EXPECT_THROW(Subdomain(lat, {0, 0, 0}, {6, 6, 6}, 2), Error);
}

// --- Row-run kernels against a per-site reference ----------------------

// Frame coordinate of cell `c` (counted from the extended origin).
Vec3i frameCoord(const Subdomain& sd, Vec3i c, int sub) {
  const Vec3i o = sd.originCells();
  const Vec3i g = sd.ghostCellsVec();
  return {2 * (o.x - g.x + c.x) + sub, 2 * (o.y - g.y + c.y) + sub,
          2 * (o.z - g.z + c.z) + sub};
}

Vec3i extendedCells(const Subdomain& sd) {
  const Vec3i e = sd.extentCells();
  const Vec3i g = sd.ghostCellsVec();
  return {e.x + 2 * g.x, e.y + 2 * g.y, e.z + 2 * g.z};
}

std::vector<std::uint8_t> referencePack(const Subdomain& sd, Vec3i lo,
                                        Vec3i hi) {
  std::vector<std::uint8_t> out;
  for (int cz = lo.z; cz < hi.z; ++cz)
    for (int cy = lo.y; cy < hi.y; ++cy)
      for (int cx = lo.x; cx < hi.x; ++cx)
        for (int sub = 0; sub < 2; ++sub)
          out.push_back(static_cast<std::uint8_t>(
              sd.speciesAt(frameCoord(sd, {cx, cy, cz}, sub))));
  return out;
}

// Random boxes inside the extended frame, plus fixed ones that straddle
// the ghost/owned boundary on every axis, the owned box, and the whole
// frame.
std::vector<std::pair<Vec3i, Vec3i>> testBoxes(const Subdomain& sd,
                                               std::uint64_t seed) {
  const Vec3i ext = extendedCells(sd);
  const Vec3i g = sd.ghostCellsVec();
  const Vec3i e = sd.extentCells();
  std::vector<std::pair<Vec3i, Vec3i>> boxes{
      {{0, 0, 0}, ext},
      {g, {g.x + e.x, g.y + e.y, g.z + e.z}},
      {{std::max(0, g.x - 1), std::max(0, g.y - 1), std::max(0, g.z - 1)},
       {std::min(ext.x, g.x + e.x + 1), std::min(ext.y, g.y + 2),
        std::min(ext.z, g.z + e.z + 1)}}};
  Rng rng(seed);
  const auto pick = [&](int n, int& lo, int& hi) {
    lo = static_cast<int>(rng.uniform() * n);
    hi = lo + 1 + static_cast<int>(rng.uniform() * (n - lo));
    hi = std::min(hi, n);
  };
  for (int i = 0; i < 60; ++i) {
    Vec3i lo, hi;
    pick(ext.x, lo.x, hi.x);
    pick(ext.y, lo.y, hi.y);
    pick(ext.z, lo.z, hi.z);
    boxes.emplace_back(lo, hi);
  }
  return boxes;
}

std::vector<Subdomain> kernelSubdomains(const BccLattice& lat) {
  std::vector<Subdomain> out;
  out.emplace_back(lat, Vec3i{6, 0, 6}, Vec3i{6, 6, 6}, Vec3i{2, 2, 2});
  out.emplace_back(lat, Vec3i{0, 6, 0}, Vec3i{4, 6, 8}, Vec3i{3, 1, 2});
  // Flat axes: no ghost shell where the subdomain spans the period.
  out.emplace_back(lat, Vec3i{0, 0, 6}, Vec3i{12, 6, 6}, Vec3i{0, 2, 2});
  out.emplace_back(lat, Vec3i{6, 0, 0}, Vec3i{6, 12, 12}, Vec3i{2, 0, 0});
  return out;
}

TEST(SubdomainKernels, PackMatchesPerSiteReference) {
  const BccLattice lat(12, 12, 12, 2.87);
  const LatticeState global = randomGlobal(lat, 31);
  std::uint64_t seed = 40;
  for (Subdomain& sd : kernelSubdomains(lat)) {
    sd.loadFrom(global);
    for (const auto& [lo, hi] : testBoxes(sd, ++seed))
      ASSERT_EQ(sd.packCellBox(lo, hi), referencePack(sd, lo, hi))
          << "box (" << lo.x << "," << lo.y << "," << lo.z << ")-(" << hi.x
          << "," << hi.y << "," << hi.z << ")";
  }
}

TEST(SubdomainKernels, UnpackMatchesPerSiteReference) {
  const BccLattice lat(12, 12, 12, 2.87);
  const LatticeState global = randomGlobal(lat, 32);
  const LatticeState other = randomGlobal(lat, 33);
  std::uint64_t seed = 50;
  for (Subdomain& sd : kernelSubdomains(lat)) {
    sd.loadFrom(global);
    Subdomain source = sd;
    source.loadFrom(other);
    for (const auto& [lo, hi] : testBoxes(sd, ++seed)) {
      Subdomain fast = sd;
      Subdomain reference = sd;
      fast.unpackCellBox(lo, hi, source.packCellBox(lo, hi));
      for (int cz = lo.z; cz < hi.z; ++cz)
        for (int cy = lo.y; cy < hi.y; ++cy)
          for (int cx = lo.x; cx < hi.x; ++cx)
            for (int sub = 0; sub < 2; ++sub) {
              const Vec3i p = frameCoord(sd, {cx, cy, cz}, sub);
              reference.set(p, source.speciesAt(p));
            }
      const Vec3i ext = extendedCells(sd);
      ASSERT_EQ(fast.packCellBox({0, 0, 0}, ext),
                reference.packCellBox({0, 0, 0}, ext));
      ASSERT_EQ(fast.packCellBox({0, 0, 0}, ext),
                referencePack(reference, {0, 0, 0}, ext));
    }
  }
}

TEST(SubdomainKernels, LoadAndRescanMatchPerSiteReference) {
  const BccLattice lat(12, 12, 12, 2.87);
  LatticeState global(lat);
  Rng rng(34);
  global.randomAlloy(0.2, 40, rng);
  for (Subdomain& sd : kernelSubdomains(lat)) {
    sd.loadFrom(global);
    const Vec3i ext = extendedCells(sd);
    std::vector<Vec3i> expectedVacancies;
    for (int cz = 0; cz < ext.z; ++cz)
      for (int cy = 0; cy < ext.y; ++cy)
        for (int cx = 0; cx < ext.x; ++cx)
          for (int sub = 0; sub < 2; ++sub) {
            const Vec3i p = frameCoord(sd, {cx, cy, cz}, sub);
            ASSERT_EQ(sd.speciesAt(p), global.speciesAt(lat.wrap(p)));
            if (sd.owns(p) && global.speciesAt(lat.wrap(p)) ==
                                  Species::kVacancy)
              expectedVacancies.push_back(lat.wrap(p));
          }
    EXPECT_EQ(sd.vacancies(), expectedVacancies);
  }
}

// --- Change list --------------------------------------------------------

TEST(SubdomainChanges, ConstructionAndLoadRequestResync) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  EXPECT_TRUE(sd.resyncPending());
  sd.clearChanges();
  EXPECT_FALSE(sd.resyncPending());
  sd.loadFrom(randomGlobal(lat, 3));
  EXPECT_TRUE(sd.resyncPending());
}

TEST(SubdomainChanges, RecordsOwnedWritesOnlySortedAndDeduplicated) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  sd.clearChanges();
  sd.set({5, 5, 5}, Species::kCu);      // owned cell (2,2,2), sub 1
  sd.set({0, 0, 0}, Species::kCu);      // owned cell (0,0,0), sub 0
  sd.set({5, 5, 5}, Species::kVacancy);  // repeat: one entry, last value
  sd.set({-1, -1, -1}, Species::kCu);    // ghost write: not recorded
  const Vec3i ext{10, 10, 10};
  const auto changes = sd.changesInBox({0, 0, 0}, ext);
  ASSERT_EQ(changes.size(), 2u);
  // Offsets in packCellBox order of the whole extended box (ghost 2).
  EXPECT_EQ(changes[0].offset, 2u * (2 + 10 * (2 + 10 * 2)));
  EXPECT_EQ(changes[0].species, Species::kCu);
  EXPECT_EQ(changes[1].offset, 2u * (4 + 10 * (4 + 10 * 4)) + 1);
  EXPECT_EQ(changes[1].species, Species::kVacancy);
  // A box holding neither site sees nothing.
  EXPECT_TRUE(sd.changesInBox({5, 5, 5}, {8, 8, 8}).empty());
  sd.clearChanges();
  EXPECT_TRUE(sd.changesInBox({0, 0, 0}, ext).empty());
}

TEST(SubdomainChanges, AppliedChangesAreWrittenAndForwarded) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {6, 6, 6}, 2);
  sd.clearChanges();
  // Ghost cell (0,1,0) of the box [0,2)^3, sub 1: offset 2 * (0 + 2 * 1) + 1.
  sd.applyChanges({0, 0, 0}, {2, 2, 2}, {{5, Species::kVacancy}});
  const Vec3i p{2 * (0 - 2) + 1, 2 * (1 - 2) + 1, 2 * (0 - 2) + 1};
  EXPECT_EQ(sd.speciesAt(p), Species::kVacancy);
  const auto forwarded = sd.changesInBox({0, 0, 0}, {10, 10, 10});
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0].offset, 2u * (0 + 10 * 1) + 1);
  EXPECT_THROW(sd.applyChanges({0, 0, 0}, {2, 2, 2}, {{16, Species::kCu}}),
               Error);
}

TEST(Subdomain, AtOutsideFrameThrows) {
  const BccLattice lat(12, 12, 12, 2.87);
  Subdomain sd(lat, {0, 0, 0}, {4, 4, 4}, 2);
  EXPECT_THROW(sd.speciesAt({16, 16, 16}), Error);
}

}  // namespace
}  // namespace tkmc
