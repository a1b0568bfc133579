#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace tkmc {

/// Local device memory (scratchpad) of one simulated CPE.
///
/// A bump allocator over a fixed-capacity arena. Kernels allocate their
/// working buffers here; exceeding the 256 KiB capacity throws, which is
/// how the simulator enforces the same constraint the real hardware
/// imposes on operator design (the reason big-fusion tiles its input and
/// distributes model parameters across CPEs in the first place).
///
/// The arena reserves its capacity once, so addresses stay stable, but
/// is paged in only up to the high-water mark: a byte is zero-filled the
/// first time an allocation hands it out. Every byte still reads zero
/// until written, and a grid of 64 CPEs touches what its kernels use
/// (~16 KiB each) instead of 64 x 256 KiB.
class Ldm {
 public:
  /// `cpeId` is carried into overflow diagnostics so an exhausted
  /// scratchpad names the offending core (-1 when standalone).
  explicit Ldm(std::size_t capacityBytes, int cpeId = -1);

  /// Allocates `count` elements of T, 64-byte aligned. Throws
  /// tkmc::InvariantError naming the CPE, the requested bytes, the
  /// capacity, and the high-water mark when the arena is exhausted.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    void* p = allocBytes(count * sizeof(T), alignof(T) > 64 ? alignof(T) : 64);
    return {static_cast<T*>(p), count};
  }

  /// Releases everything allocated since construction or the last reset.
  void reset() { offset_ = 0; }

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return offset_; }
  std::size_t highWater() const { return highWater_; }
  int cpeId() const { return cpeId_; }

 private:
  void* allocBytes(std::size_t bytes, std::size_t alignment);

  std::vector<std::uint8_t> arena_;  // size() = bytes paged in so far
  std::size_t capacity_;
  std::size_t offset_ = 0;
  std::size_t highWater_ = 0;
  int cpeId_ = -1;
};

}  // namespace tkmc
