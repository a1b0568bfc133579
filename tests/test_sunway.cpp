#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

#include "common/error.hpp"
#include "sunway/arch_spec.hpp"
#include "sunway/cpe_grid.hpp"
#include "sunway/ldm.hpp"
#include "sunway/perf_model.hpp"

namespace tkmc {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized = __has_feature(address_sanitizer) ||
                            __has_feature(thread_sanitizer) ||
                            __has_feature(memory_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

// Resident bytes of this process (the second field of /proc/self/statm),
// or 0 where that file does not exist.
std::size_t residentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

// First in this file, so no earlier grid's freed arenas are still
// resident in the heap to hide the cost of a new one.
TEST(Ldm, GridPagesInOnlyWhatItsKernelsTouch) {
  if (kSanitized)
    GTEST_SKIP() << "sanitizer allocators and shadow memory decide what "
                    "is resident, not the arena";
  if (residentBytes() == 0) GTEST_SKIP() << "no /proc/self/statm";
  const std::size_t before = residentBytes();
  CpeGrid grid;
  const std::size_t after = residentBytes();
  const std::size_t built = after > before ? after - before : 0;
  const std::size_t allArenas =
      static_cast<std::size_t>(grid.size()) * grid.spec().ldmBytes;
  EXPECT_LT(built, allArenas / 8);

  // A kernel's first allocation reads zero, however much it takes.
  bool zeros = true;
  grid.run([&](CpeContext& cpe) {
    auto block = cpe.ldm().alloc<std::uint8_t>(16 * 1024);
    zeros = zeros && std::all_of(block.begin(), block.end(),
                                 [](std::uint8_t b) { return b == 0; });
  });
  EXPECT_TRUE(zeros);
}

TEST(Ldm, AllocatesUntilCapacity) {
  Ldm ldm(1024);
  auto a = ldm.alloc<float>(64);   // 256 B
  auto b = ldm.alloc<float>(128);  // 512 B
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_LE(ldm.used(), ldm.capacity());
}

TEST(Ldm, OverflowThrows) {
  Ldm ldm(256);
  EXPECT_THROW(ldm.alloc<double>(1000), Error);
}

TEST(Ldm, ResetReleasesArena) {
  Ldm ldm(512);
  ldm.alloc<float>(100);
  const std::size_t used = ldm.used();
  EXPECT_GT(used, 0u);
  ldm.reset();
  EXPECT_EQ(ldm.used(), 0u);
  EXPECT_EQ(ldm.highWater(), used);  // high-water survives reset
  ldm.alloc<float>(100);
  EXPECT_EQ(ldm.highWater(), used);
}

TEST(Ldm, AllocationsAreAligned) {
  Ldm ldm(4096);
  auto a = ldm.alloc<std::uint8_t>(3);
  auto b = ldm.alloc<double>(4);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u);
}

TEST(ArchSpec, RooflineKneeMatchesPaper) {
  const ArchSpec spec;
  EXPECT_NEAR(spec.peakSpFlops() / spec.mainMemoryBandwidth, 43.63, 1e-9);
}

TEST(ArchSpec, AttainableIsMinOfBounds) {
  const ArchSpec spec;
  EXPECT_DOUBLE_EQ(spec.attainableFlops(1.0), spec.mainMemoryBandwidth);
  EXPECT_DOUBLE_EQ(spec.attainableFlops(1e6), spec.peakSpFlops());
  EXPECT_DOUBLE_EQ(spec.attainableFlops(spec.rooflineKnee), spec.peakSpFlops());
}

TEST(CpeGrid, HasSixtyFourCpesInEightByEightMesh) {
  CpeGrid grid;
  EXPECT_EQ(grid.size(), 64);
  EXPECT_EQ(grid.cpe(9).row(), 1);
  EXPECT_EQ(grid.cpe(9).col(), 1);
  EXPECT_EQ(grid.cpe(63).row(), 7);
  EXPECT_EQ(grid.cpe(63).col(), 7);
}

TEST(CpeGrid, RunExecutesKernelOnEveryCpe) {
  CpeGrid grid;
  std::vector<int> visited(64, 0);
  grid.run([&](CpeContext& cpe) { visited[static_cast<std::size_t>(cpe.id())]++; });
  for (int v : visited) EXPECT_EQ(v, 1);
}

TEST(CpeGrid, DmaMovesBytesAndCharges) {
  CpeGrid grid;
  std::vector<float> main(16, 3.5f);
  std::vector<float> back(16, 0.0f);
  grid.run([&](CpeContext& cpe) {
    if (cpe.id() != 0) return;
    auto buf = cpe.ldm().alloc<float>(16);
    cpe.dmaGet(buf.data(), main.data(), 16 * sizeof(float));
    for (float v : buf) EXPECT_EQ(v, 3.5f);
    cpe.dmaPut(back.data(), buf.data(), 16 * sizeof(float));
  });
  EXPECT_EQ(back[7], 3.5f);
  const Traffic t = grid.collectTraffic();
  EXPECT_EQ(t.mainReadBytes, 16u * sizeof(float));
  EXPECT_EQ(t.mainWriteBytes, 16u * sizeof(float));
  EXPECT_EQ(t.rmaBytes, 0u);
}

TEST(CpeGrid, RmaDoesNotTouchMainMemoryCounters) {
  CpeGrid grid;
  std::vector<float> data(8, 1.0f);
  grid.run([&](CpeContext& cpe) {
    if (cpe.id() != 3) return;
    auto buf = cpe.ldm().alloc<float>(8);
    cpe.rmaGet(buf.data(), data.data(), 8 * sizeof(float));
  });
  const Traffic t = grid.collectTraffic();
  EXPECT_EQ(t.mainBytes(), 0u);
  EXPECT_EQ(t.rmaBytes, 8u * sizeof(float));
}

TEST(CpeGrid, CollectTrafficResetsCounters) {
  CpeGrid grid;
  std::vector<float> data(4, 0.0f);
  grid.run([&](CpeContext& cpe) {
    auto buf = cpe.ldm().alloc<float>(4);
    cpe.dmaGet(buf.data(), data.data(), 4 * sizeof(float));
  });
  EXPECT_GT(grid.collectTraffic().mainReadBytes, 0u);
  EXPECT_EQ(grid.collectTraffic().mainReadBytes, 0u);
}

TEST(PerfModel, MemoryBoundKernelIsBandwidthLimited) {
  const PerfModel model;
  Traffic t;
  t.mainReadBytes = 100 << 20;
  t.flops = 10 << 20;  // intensity ~0.1
  const RooflinePoint p = model.analyze("memtest", t);
  EXPECT_FALSE(model.computeBound(t));
  EXPECT_NEAR(p.modeledSeconds,
              static_cast<double>(t.mainBytes()) /
                  model.spec().mainMemoryBandwidth,
              1e-12);
}

TEST(PerfModel, ComputeBoundKernelIsPeakLimited) {
  const PerfModel model;
  Traffic t;
  t.mainReadBytes = 1 << 10;
  t.flops = 1ULL << 32;  // huge intensity
  const RooflinePoint p = model.analyze("flops", t);
  EXPECT_TRUE(model.computeBound(t));
  EXPECT_NEAR(p.peakFraction, 1.0, 1e-12);
  EXPECT_NEAR(p.modeledSeconds,
              static_cast<double>(t.flops) / model.spec().peakSpFlops(), 1e-18);
}

TEST(Traffic, AccumulationOperator) {
  Traffic a, b;
  a.mainReadBytes = 10;
  a.flops = 5;
  b.mainWriteBytes = 20;
  b.rmaBytes = 7;
  a += b;
  EXPECT_EQ(a.mainBytes(), 30u);
  EXPECT_EQ(a.rmaBytes, 7u);
  EXPECT_EQ(a.flops, 5u);
}

}  // namespace
}  // namespace tkmc
