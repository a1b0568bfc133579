#include "parallel/ghost_exchange.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"

namespace tkmc {
namespace {

// Builds one subdomain per rank, loads a random global state into the
// owned regions only (ghosts deliberately wrong), exchanges, and checks
// every ghost site against the global state.
TEST(GhostExchange, FillsAllGhostsIncludingCornersAndEdges) {
  const BccLattice lat(12, 12, 12, 2.87);
  LatticeState global(lat);
  Rng rng(5);
  global.randomAlloy(0.3, 7, rng);

  const Decomposition decomp({12, 12, 12}, {2, 2, 2});
  SimComm comm(decomp.rankCount());
  GhostExchange exchange(decomp, comm);

  std::vector<Subdomain> domains;
  for (int r = 0; r < decomp.rankCount(); ++r) {
    domains.emplace_back(lat, decomp.originCells(r), decomp.extentCells(), 2);
    Subdomain& sd = domains.back();
    // Load owned data only; poison the ghosts.
    sd.loadFrom(global);
    const Vec3i e = sd.extentCells();
    const int g = sd.ghostCells();
    for (int cz = -g; cz < e.z + g; ++cz)
      for (int cy = -g; cy < e.y + g; ++cy)
        for (int cx = -g; cx < e.x + g; ++cx) {
          const bool ghost = cx < 0 || cx >= e.x || cy < 0 || cy >= e.y ||
                             cz < 0 || cz >= e.z;
          if (!ghost) continue;
          const Vec3i o = decomp.originCells(r);
          for (int sub = 0; sub < 2; ++sub)
            sd.set({2 * (o.x + cx) + sub, 2 * (o.y + cy) + sub,
                    2 * (o.z + cz) + sub},
                   Species::kCu);
        }
  }

  exchange.exchangeAll(domains);

  for (int r = 0; r < decomp.rankCount(); ++r) {
    const Subdomain& sd = domains[static_cast<std::size_t>(r)];
    const Vec3i o = decomp.originCells(r);
    const Vec3i e = sd.extentCells();
    const int g = sd.ghostCells();
    for (int cz = -g; cz < e.z + g; ++cz)
      for (int cy = -g; cy < e.y + g; ++cy)
        for (int cx = -g; cx < e.x + g; ++cx)
          for (int sub = 0; sub < 2; ++sub) {
            const Vec3i p{2 * (o.x + cx) + sub, 2 * (o.y + cy) + sub,
                          2 * (o.z + cz) + sub};
            ASSERT_EQ(sd.speciesAt(p), global.speciesAt(p))
                << "rank " << r << " cell (" << cx << "," << cy << "," << cz
                << ") sub " << sub;
          }
  }
}

TEST(GhostExchange, PropagatesOwnedUpdatesToNeighbors) {
  const BccLattice lat(12, 12, 12, 2.87);
  LatticeState global(lat);
  const Decomposition decomp({12, 12, 12}, {2, 2, 2});
  SimComm comm(decomp.rankCount());
  GhostExchange exchange(decomp, comm);
  std::vector<Subdomain> domains;
  for (int r = 0; r < decomp.rankCount(); ++r) {
    domains.emplace_back(lat, decomp.originCells(r), decomp.extentCells(), 2);
    domains.back().loadFrom(global);
  }
  // Rank 0 changes a site near its upper-x boundary.
  const Vec3i site{11, 1, 1};  // cell (5,0,0), owned by rank 0
  ASSERT_EQ(decomp.ownerOfSite(site), 0);
  domains[0].set(site, Species::kCu);
  exchange.exchangeAll(domains);
  // Rank 1 (x-neighbour) must now see it in its ghost shell.
  ASSERT_TRUE(domains[1].covers(site));
  EXPECT_EQ(domains[1].speciesAt(site), Species::kCu);
}

TEST(GhostExchange, MessageCountIsSixPerRankPerRound) {
  const BccLattice lat(12, 12, 12, 2.87);
  LatticeState global(lat);
  const Decomposition decomp({12, 12, 12}, {2, 2, 2});
  SimComm comm(decomp.rankCount());
  GhostExchange exchange(decomp, comm);
  std::vector<Subdomain> domains;
  for (int r = 0; r < decomp.rankCount(); ++r) {
    domains.emplace_back(lat, decomp.originCells(r), decomp.extentCells(), 2);
    domains.back().loadFrom(global);
  }
  comm.resetStats();
  exchange.exchangeAll(domains);
  EXPECT_EQ(comm.totalMessagesSent(),
            static_cast<std::uint64_t>(6 * decomp.rankCount()));
  EXPECT_GT(comm.totalBytesSent(), 0u);
}

// A single-rank axis carries no ghost shell and exchanges no slabs:
// flat grids are legal (they arise from shrink recovery) and ghosts on
// the remaining decomposed axes still come out exact.
TEST(GhostExchange, SingleRankAxisIsSkipped) {
  const BccLattice lat(12, 12, 12, 2.87);
  LatticeState global(lat);
  Rng rng(7);
  global.randomAlloy(0.3, 7, rng);
  const Decomposition decomp({12, 12, 12}, {1, 2, 2});
  SimComm comm(decomp.rankCount());
  GhostExchange exchange(decomp, comm);
  std::vector<Subdomain> domains;
  for (int r = 0; r < decomp.rankCount(); ++r) {
    domains.emplace_back(lat, decomp.originCells(r), decomp.extentCells(),
                         Vec3i{0, 2, 2});  // no ghosts along the flat axis
    domains.back().loadFrom(global);
  }
  comm.resetStats();
  exchange.exchangeAll(domains);
  // Two slabs per decomposed axis per rank; nothing on the x axis.
  EXPECT_EQ(comm.totalMessagesSent(),
            static_cast<std::uint64_t>(4 * decomp.rankCount()));
  for (int r = 0; r < decomp.rankCount(); ++r) {
    const Subdomain& sd = domains[static_cast<std::size_t>(r)];
    const Vec3i o = decomp.originCells(r);
    const Vec3i e = sd.extentCells();
    const Vec3i g = sd.ghostCellsVec();
    for (int cz = -g.z; cz < e.z + g.z; ++cz)
      for (int cy = -g.y; cy < e.y + g.y; ++cy)
        for (int cx = -g.x; cx < e.x + g.x; ++cx)
          for (int sub = 0; sub < 2; ++sub) {
            const Vec3i p{2 * (o.x + cx) + sub, 2 * (o.y + cy) + sub,
                          2 * (o.z + cz) + sub};
            ASSERT_EQ(sd.speciesAt(p), global.speciesAt(lat.wrap(p)))
                << "rank " << r << " cell (" << cx << "," << cy << "," << cz
                << ") sub " << sub;
          }
  }
}


// --- Incremental exchange -----------------------------------------------

struct World {
  World(int cells, Vec3i grid, std::uint64_t seed)
      : lat(cells, cells, cells, 2.87), global(lat),
        decomp({cells, cells, cells}, grid), comm(decomp.rankCount()),
        exchange(decomp, comm) {
    Rng rng(seed);
    global.randomAlloy(0.3, 9, rng);
    const Vec3i ghost{grid.x > 1 ? 2 : 0, grid.y > 1 ? 2 : 0,
                      grid.z > 1 ? 2 : 0};
    for (int r = 0; r < decomp.rankCount(); ++r) {
      domains.emplace_back(lat, decomp.originCells(r), decomp.extentCells(),
                           ghost);
      domains.back().loadFrom(global);
    }
  }

  // Bytes one exchangeAll() puts on the wire.
  std::uint64_t exchangeBytes(RankTeam* team = nullptr) {
    const std::uint64_t before = comm.totalBytesSent();
    exchange.exchangeAll(domains, team);
    return comm.totalBytesSent() - before;
  }

  // Writes `s` at `site` on its owner and in the reference state.
  void setOwned(Vec3i site, Species s) {
    domains[static_cast<std::size_t>(decomp.ownerOfSite(site))].set(site, s);
    global.setSpeciesAt(site, s);
  }

  // A uniformly random owned site of rank r (wrapped global coordinate).
  Vec3i randomOwnedSite(int r, Rng& rng) const {
    const Vec3i o = decomp.originCells(r);
    const Vec3i e = decomp.extentCells();
    const auto pick = [&](int n) {
      return static_cast<int>(rng.uniform() * n);
    };
    const int sub = pick(2);
    return lat.wrap({2 * (o.x + pick(e.x)) + sub, 2 * (o.y + pick(e.y)) + sub,
                     2 * (o.z + pick(e.z)) + sub});
  }

  // Every owned and ghost site of every rank against `reference`.
  ::testing::AssertionResult matches(const LatticeState& reference) const {
    for (int r = 0; r < decomp.rankCount(); ++r) {
      const Subdomain& sd = domains[static_cast<std::size_t>(r)];
      const Vec3i o = decomp.originCells(r);
      const Vec3i e = sd.extentCells();
      const Vec3i g = sd.ghostCellsVec();
      for (int cz = -g.z; cz < e.z + g.z; ++cz)
        for (int cy = -g.y; cy < e.y + g.y; ++cy)
          for (int cx = -g.x; cx < e.x + g.x; ++cx)
            for (int sub = 0; sub < 2; ++sub) {
              const Vec3i p{2 * (o.x + cx) + sub, 2 * (o.y + cy) + sub,
                            2 * (o.z + cz) + sub};
              if (sd.speciesAt(p) != reference.speciesAt(lat.wrap(p)))
                return ::testing::AssertionFailure()
                       << "rank " << r << " cell (" << cx << "," << cy << ","
                       << cz << ") sub " << sub;
            }
    }
    return ::testing::AssertionSuccess();
  }
  ::testing::AssertionResult matchesGlobal() const { return matches(global); }

  BccLattice lat;
  LatticeState global;
  Decomposition decomp;
  SimComm comm;
  GhostExchange exchange;
  std::vector<Subdomain> domains;
};

const Species kSpecies[3] = {Species::kFe, Species::kCu, Species::kVacancy};

// Random owned writes on every rank, an exchange after each round: every
// ghost stays exact, and after the first (full) round each round costs a
// small fraction of its bytes — with and without rank threads.
TEST(IncrementalGhostExchange, RandomOwnedWritesStayExactAndCheap) {
  for (const Vec3i grid : {Vec3i{2, 2, 2}, Vec3i{2, 2, 1}, Vec3i{2, 1, 1}})
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE("grid " + std::to_string(grid.x) + "x" +
                   std::to_string(grid.y) + "x" + std::to_string(grid.z) +
                   (threaded ? " threaded" : " in-process"));
      World w(16, grid, 21);
      std::unique_ptr<RankTeam> team;
      if (threaded) team = std::make_unique<RankTeam>(w.decomp.rankCount());
      Rng rng(22);
      std::uint64_t firstBytes = 0;
      for (int round = 0; round < 30; ++round) {
        for (int r = 0; r < w.decomp.rankCount(); ++r)
          for (int k = 0; k < 2; ++k)
            w.setOwned(w.randomOwnedSite(r, rng),
                       kSpecies[static_cast<int>(rng.uniform() * 3)]);
        const std::uint64_t bytes = w.exchangeBytes(team.get());
        ASSERT_TRUE(w.matchesGlobal()) << "round " << round;
        if (round == 0) {
          firstBytes = bytes;
          // Construction asked for a resync: every slab went out full.
          EXPECT_EQ(w.exchange.resyncSlabs(), w.comm.totalMessagesSent());
        } else {
          EXPECT_LT(bytes * 20, firstBytes)
              << "round " << round << ": " << bytes << " of " << firstBytes;
        }
      }
      EXPECT_EQ(w.exchange.resyncSlabs(), w.comm.totalMessagesSent() / 30);
      EXPECT_GT(w.exchange.changeSites(), 0u);
    }
}

// A change in the (+x,+y,+z) corner cell of rank 0 reaches every other
// rank of a 2x2x2 grid through the staged relays.
TEST(IncrementalGhostExchange, CornerChangeReachesAllSevenNeighbours) {
  World w(12, {2, 2, 2}, 23);
  w.exchange.exchangeAll(w.domains);  // initial full resync
  const std::uint64_t fullSlabs = w.exchange.resyncSlabs();
  const Vec3i corner{11, 11, 11};  // cell (5,5,5), the last owned by rank 0
  ASSERT_EQ(w.decomp.ownerOfSite(corner), 0);
  const Species updated =
      w.global.speciesAt(corner) == Species::kCu ? Species::kFe : Species::kCu;
  w.setOwned(corner, updated);
  w.exchange.exchangeAll(w.domains);
  EXPECT_EQ(w.exchange.resyncSlabs(), fullSlabs);  // change lists only
  for (int r = 1; r < 8; ++r) {
    ASSERT_TRUE(w.domains[static_cast<std::size_t>(r)].covers(corner));
    EXPECT_EQ(w.domains[static_cast<std::size_t>(r)].speciesAt(corner), updated)
        << "rank " << r;
  }
  EXPECT_TRUE(w.matchesGlobal());
}

// A rank that rewrites its whole owned region has change lists larger
// than its slabs, so it sends them in full; the ranks that receive a
// full slab must forward full slabs too, or edges and corners go stale.
TEST(IncrementalGhostExchange, OversizedChangeListsGoFullAndAreForwarded) {
  World w(12, {2, 2, 2}, 30);
  w.exchange.exchangeAll(w.domains);
  const std::uint64_t fullSlabs = w.exchange.resyncSlabs();
  Rng rng(31);
  const Vec3i o = w.decomp.originCells(0);
  const Vec3i e = w.decomp.extentCells();
  for (int cz = 0; cz < e.z; ++cz)
    for (int cy = 0; cy < e.y; ++cy)
      for (int cx = 0; cx < e.x; ++cx)
        for (int sub = 0; sub < 2; ++sub)
          w.setOwned({2 * (o.x + cx) + sub, 2 * (o.y + cy) + sub,
                      2 * (o.z + cz) + sub},
                     kSpecies[static_cast<int>(rng.uniform() * 3)]);
  w.exchange.exchangeAll(w.domains);
  EXPECT_GT(w.exchange.resyncSlabs(), fullSlabs);
  EXPECT_TRUE(w.matchesGlobal());
}

// Reloading one subdomain mid-run with different data forces a resync:
// its neighbours' ghosts pick up the new owned data and its own ghosts
// are restored from their owners.
TEST(IncrementalGhostExchange, ReloadedSubdomainResyncsItsNeighbours) {
  World w(16, {2, 2, 2}, 24);
  Rng rng(25);
  for (int round = 0; round < 3; ++round) {
    w.setOwned(w.randomOwnedSite(round, rng), Species::kVacancy);
    w.exchange.exchangeAll(w.domains);
  }
  ASSERT_TRUE(w.matchesGlobal());
  LatticeState other(w.lat);
  Rng otherRng(26);
  other.randomAlloy(0.5, 20, otherRng);
  const int reloaded = 3;
  LatticeState expected = w.global;
  other.forEachSite([&](LatticeState::SiteId id, Species s) {
    if (w.decomp.ownerOfSite(w.lat.coordinate(id)) == reloaded)
      expected.setSpecies(id, s);
  });
  const std::uint64_t fullBefore = w.exchange.resyncSlabs();
  w.domains[static_cast<std::size_t>(reloaded)].loadFrom(other);
  w.exchange.exchangeAll(w.domains);
  EXPECT_GT(w.exchange.resyncSlabs(), fullBefore);
  EXPECT_TRUE(w.matches(expected));
  // The resync is one round only; the next runs on change lists again.
  const std::uint64_t fullAfter = w.exchange.resyncSlabs();
  w.exchange.exchangeAll(w.domains);
  EXPECT_EQ(w.exchange.resyncSlabs(), fullAfter);
  EXPECT_TRUE(w.matches(expected));
}

// A dropped and a corrupted change-list slab are absorbed by ARQ from
// the sender's buffered payload.
TEST(IncrementalGhostExchange, ArqAbsorbsDroppedAndCorruptedChangeLists) {
  World w(16, {2, 2, 2}, 27);
  w.exchange.exchangeAll(w.domains);
  const std::uint64_t fullSlabs = w.exchange.resyncSlabs();
  Rng rng(28);
  for (int r = 0; r < w.decomp.rankCount(); ++r)
    for (int k = 0; k < 4; ++k)
      w.setOwned(w.randomOwnedSite(r, rng), Species::kCu);
  FaultInjector inj(29);
  inj.armSchedule("comm.drop", {3});
  inj.armSchedule("comm.corrupt", {7});
  {
    FaultScope scope(inj);
    w.exchange.exchangeAll(w.domains);
  }
  EXPECT_EQ(inj.fireCount("comm.drop"), 1u);
  EXPECT_EQ(inj.fireCount("comm.corrupt"), 1u);
  EXPECT_GE(w.exchange.retries(), 1u);
  EXPECT_EQ(w.exchange.resyncSlabs(), fullSlabs);
  EXPECT_TRUE(w.matchesGlobal());
}

}  // namespace
}  // namespace tkmc
