#include "common/fault_injection.hpp"

#include <gtest/gtest.h>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "parallel/ghost_exchange.hpp"
#include "parallel/sim_comm.hpp"

namespace tkmc {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(Crc32, KnownVectorAndSensitivity) {
  // The IEEE CRC32 of "123456789" is a standard check value.
  const char* digits = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
  std::vector<std::uint8_t> data = bytes({1, 2, 3, 4});
  const std::uint32_t before = crc32(data.data(), data.size());
  data[2] ^= 0x20;
  EXPECT_NE(crc32(data.data(), data.size()), before);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(FaultInjector, UnarmedPointsCountButNeverFire) {
  FaultInjector inj(1);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(inj.shouldFire("nothing.armed"));
  EXPECT_EQ(inj.hitCount("nothing.armed"), 100u);
  EXPECT_EQ(inj.fireCount("nothing.armed"), 0u);
}

TEST(FaultInjector, ScheduleFiresOnExactOrdinalsOnce) {
  FaultInjector inj(1);
  inj.armSchedule("p", {2, 5});
  std::vector<int> fired;
  for (int i = 1; i <= 8; ++i)
    if (inj.shouldFire("p")) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<int>{2, 5}));
  EXPECT_EQ(inj.fireCount("p"), 2u);
}

TEST(FaultInjector, ArmOnceFiresOnNextHitOnly) {
  FaultInjector inj(1);
  EXPECT_FALSE(inj.shouldFire("p"));  // hit 1
  inj.armOnce("p");
  EXPECT_TRUE(inj.shouldFire("p"));   // hit 2 fires
  EXPECT_FALSE(inj.shouldFire("p"));  // hit 3 does not
}

TEST(FaultInjector, ProbabilityIsDeterministicPerSeed) {
  FaultInjector a(42), b(42), c(43);
  a.armProbability("p", 0.3);
  b.armProbability("p", 0.3);
  c.armProbability("p", 0.3);
  std::vector<bool> fa, fb, fc;
  for (int i = 0; i < 200; ++i) {
    fa.push_back(a.shouldFire("p"));
    fb.push_back(b.shouldFire("p"));
    fc.push_back(c.shouldFire("p"));
  }
  EXPECT_EQ(fa, fb);          // same seed -> same failure pattern
  EXPECT_NE(fa, fc);          // different seed -> different pattern
  EXPECT_GT(a.fireCount("p"), 30u);  // roughly p * hits
  EXPECT_LT(a.fireCount("p"), 90u);
}

TEST(FaultInjector, PointsHaveIndependentStreams) {
  FaultInjector inj(7);
  inj.armProbability("x", 0.5);
  inj.armProbability("y", 0.5);
  std::vector<bool> fx, fy;
  for (int i = 0; i < 64; ++i) {
    fx.push_back(inj.shouldFire("x"));
    fy.push_back(inj.shouldFire("y"));
  }
  EXPECT_NE(fx, fy);
}

TEST(FaultInjector, DisarmStopsFiring) {
  FaultInjector inj(1);
  inj.armProbability("p", 1.0);
  EXPECT_TRUE(inj.shouldFire("p"));
  inj.disarm("p");
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(inj.shouldFire("p"));
  inj.armProbability("p", 1.0);
  inj.armSchedule("q", {1});
  inj.disarmAll();
  EXPECT_FALSE(inj.shouldFire("p"));
  EXPECT_FALSE(inj.shouldFire("q"));
}

TEST(FaultInjector, ResetRestoresSeedFreshStreams) {
  // disarm()/disarmAll() keep counters and RNG positions, so an injector
  // reused across test cases fires in a different pattern than a fresh
  // one with the same seed (stale-stream carry-over). reset() must make
  // the reuse indistinguishable from construction.
  FaultInjector fresh(42), reused(42);
  reused.armProbability("p", 0.3);
  for (int i = 0; i < 50; ++i) reused.shouldFire("p");  // first "test case"
  reused.disarmAll();

  reused.reset();
  fresh.armProbability("p", 0.3);
  reused.armProbability("p", 0.3);
  std::vector<bool> ff, fr;
  for (int i = 0; i < 100; ++i) {
    ff.push_back(fresh.shouldFire("p"));
    fr.push_back(reused.shouldFire("p"));
  }
  EXPECT_EQ(ff, fr);
  EXPECT_EQ(reused.hitCount("p"), 100u);  // counters restarted too
}

TEST(FaultInjector, TriggerCountAndReportNameEveryFiredPoint) {
  FaultInjector inj(5);
  inj.armSchedule("comm.drop", {1, 3});
  inj.armOnce("checkpoint.corrupt_write");
  for (int i = 0; i < 4; ++i) inj.shouldFire("comm.drop");
  inj.shouldFire("checkpoint.corrupt_write");
  inj.shouldFire("engine.cycle");  // hit but never armed

  EXPECT_EQ(inj.triggerCount("comm.drop"), 2u);
  EXPECT_EQ(inj.triggerCount("checkpoint.corrupt_write"), 1u);
  EXPECT_EQ(inj.triggerCount("engine.cycle"), 0u);
  EXPECT_EQ(inj.firedPoints(),
            (std::vector<std::string>{"checkpoint.corrupt_write",
                                      "comm.drop"}));

  const auto rows = inj.report();
  ASSERT_EQ(rows.size(), 3u);  // sorted by name, untouched points absent
  EXPECT_EQ(rows[0].name, "checkpoint.corrupt_write");
  EXPECT_EQ(rows[0].hits, 1u);
  EXPECT_EQ(rows[0].fires, 1u);
  EXPECT_EQ(rows[1].name, "comm.drop");
  EXPECT_EQ(rows[1].hits, 4u);
  EXPECT_EQ(rows[1].fires, 2u);
  EXPECT_EQ(rows[2].name, "engine.cycle");
  EXPECT_EQ(rows[2].fires, 0u);

  inj.reset();
  EXPECT_TRUE(inj.report().empty());
  EXPECT_TRUE(inj.firedPoints().empty());
}

TEST(FaultInjector, RejectsBadArming) {
  FaultInjector inj(1);
  EXPECT_THROW(inj.armProbability("p", 1.5), Error);
  EXPECT_THROW(inj.armProbability("p", -0.1), Error);
  EXPECT_THROW(inj.armSchedule("p", {0}), Error);
}

TEST(FaultScope, InstallsAndRestoresNested) {
  EXPECT_EQ(activeFaultInjector(), nullptr);
  EXPECT_FALSE(faultFires("any.point"));  // no scope -> never fires
  FaultInjector outer(1), inner(2);
  outer.armProbability("p", 1.0);
  {
    FaultScope a(outer);
    EXPECT_EQ(activeFaultInjector(), &outer);
    EXPECT_TRUE(faultFires("p"));
    {
      FaultScope b(inner);
      EXPECT_EQ(activeFaultInjector(), &inner);
      EXPECT_FALSE(faultFires("p"));  // inner has no arming
    }
    EXPECT_EQ(activeFaultInjector(), &outer);
  }
  EXPECT_EQ(activeFaultInjector(), nullptr);
}

// --- SimComm integrity framing under injected link faults ---

TEST(SimCommFaults, CorruptMessageDetectedByCrc) {
  FaultInjector inj(3);
  inj.armSchedule("comm.corrupt", {1});
  FaultScope scope(inj);
  SimComm comm(2);
  comm.send(0, 1, 7, bytes({1, 2, 3, 4, 5}));
  EXPECT_THROW(comm.receive(1, 0, 7), CommError);
  EXPECT_EQ(comm.crcFailures(), 1u);
  // The channel recovers: the next message goes through.
  comm.send(0, 1, 7, bytes({9}));
  EXPECT_EQ(comm.receive(1, 0, 7), bytes({9}));
}

TEST(SimCommFaults, CorruptEmptyPayloadAlsoDetected) {
  FaultInjector inj(3);
  inj.armSchedule("comm.corrupt", {1});
  FaultScope scope(inj);
  SimComm comm(2);
  comm.send(0, 1, 7, {});
  EXPECT_THROW(comm.receive(1, 0, 7), CommError);
}

TEST(SimCommFaults, DroppedMessageLeavesNothingPending) {
  FaultInjector inj(4);
  inj.armSchedule("comm.drop", {1});
  FaultScope scope(inj);
  SimComm comm(2);
  comm.send(0, 1, 7, bytes({1}));
  EXPECT_FALSE(comm.hasMessage(1, 0, 7));
  EXPECT_THROW(comm.receive(1, 0, 7), CommError);
}

TEST(SimCommFaults, DropCreatesDetectableSequenceGap) {
  FaultInjector inj(4);
  inj.armSchedule("comm.drop", {1});
  FaultScope scope(inj);
  SimComm comm(2);
  comm.send(0, 1, 7, bytes({1}));  // dropped
  comm.send(0, 1, 7, bytes({2}));  // arrives with seq 1
  EXPECT_THROW(comm.receive(1, 0, 7), CommError);
}

TEST(SimCommFaults, DuplicateIsDroppedSilently) {
  FaultInjector inj(5);
  inj.armSchedule("comm.duplicate", {1});
  FaultScope scope(inj);
  SimComm comm(2);
  comm.send(0, 1, 7, bytes({1}));  // duplicated in flight
  comm.send(0, 1, 7, bytes({2}));
  EXPECT_EQ(comm.receive(1, 0, 7), bytes({1}));
  EXPECT_EQ(comm.receive(1, 0, 7), bytes({2}));  // dup of {1} skipped
  EXPECT_EQ(comm.duplicatesDropped(), 1u);
  EXPECT_FALSE(comm.hasMessage(1, 0, 7));
}

TEST(SimCommFaults, ResetChannelsPurgesPendingAndSequences) {
  FaultInjector inj(6);
  FaultScope scope(inj);
  SimComm comm(2);
  comm.send(0, 1, 7, bytes({1}));
  comm.send(0, 1, 8, bytes({2}));
  comm.resetChannels(7, 8);
  EXPECT_FALSE(comm.hasMessage(1, 0, 7));
  EXPECT_TRUE(comm.hasMessage(1, 0, 8));
  // Sequence tracking restarts at zero on the purged channel.
  comm.send(0, 1, 7, bytes({3}));
  EXPECT_EQ(comm.receive(1, 0, 7), bytes({3}));
}

// --- GhostExchange retry absorbs injected comm faults ---

struct ExchangeWorld {
  ExchangeWorld()
      : lat(12, 12, 12, 2.87), global(lat), decomp({12, 12, 12}, {2, 2, 2}),
        comm(decomp.rankCount()), exchange(decomp, comm) {
    Rng rng(5);
    global.randomAlloy(0.3, 7, rng);
    for (int r = 0; r < decomp.rankCount(); ++r) {
      domains.emplace_back(lat, decomp.originCells(r), decomp.extentCells(), 2);
      domains.back().loadFrom(global);
    }
  }

  bool ghostsMatchGlobal() const {
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
              if (sd.speciesAt(p) != global.speciesAt(p)) return false;
            }
    }
    return true;
  }

  BccLattice lat;
  LatticeState global;
  Decomposition decomp;
  SimComm comm;
  GhostExchange exchange;
  std::vector<Subdomain> domains;
};

TEST(GhostExchangeFaults, RetriesThroughCorruptedSlab) {
  ExchangeWorld w;
  FaultInjector inj(11);
  inj.armSchedule("comm.corrupt", {3});  // one ghost slab corrupted
  FaultScope scope(inj);
  w.exchange.exchangeAll(w.domains);
  EXPECT_GE(w.exchange.retries(), 1u);
  EXPECT_TRUE(w.ghostsMatchGlobal());
}

TEST(GhostExchangeFaults, RetriesThroughDroppedSlab) {
  ExchangeWorld w;
  FaultInjector inj(12);
  inj.armSchedule("comm.drop", {10});
  FaultScope scope(inj);
  w.exchange.exchangeAll(w.domains);
  EXPECT_GE(w.exchange.retries(), 1u);
  EXPECT_TRUE(w.ghostsMatchGlobal());
}

TEST(GhostExchangeFaults, BoundedRetriesThenTypedError) {
  ExchangeWorld w;
  w.exchange.setMaxAttempts(2);
  FaultInjector inj(13);
  inj.armProbability("comm.corrupt", 1.0);  // every message corrupt
  FaultScope scope(inj);
  EXPECT_THROW(w.exchange.exchangeAll(w.domains), CommError);
}

TEST(GhostExchangeFaults, DisarmedInjectionIsFree) {
  ExchangeWorld w;
  FaultInjector inj(14);  // installed but nothing armed
  FaultScope scope(inj);
  w.exchange.exchangeAll(w.domains);
  EXPECT_EQ(w.exchange.retries(), 0u);
  EXPECT_EQ(w.comm.crcFailures(), 0u);
  EXPECT_TRUE(w.ghostsMatchGlobal());
}

}  // namespace
}  // namespace tkmc
