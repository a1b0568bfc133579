#include "sunway/ldm.hpp"

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace tkmc {

Ldm::Ldm(std::size_t capacityBytes, int cpeId)
    : capacity_(capacityBytes), cpeId_(cpeId) {
  require(capacityBytes > 0, "LDM capacity must be positive");
  arena_.reserve(capacityBytes);
}

void* Ldm::allocBytes(std::size_t bytes, std::size_t alignment) {
  // Align the absolute address (the vector's base is not necessarily
  // 64-byte aligned), then charge the padding against the arena. The
  // reserved storage never moves, so the base is fixed.
  const auto base = reinterpret_cast<std::uintptr_t>(arena_.data());
  const std::uintptr_t address =
      (base + offset_ + alignment - 1) & ~(alignment - 1);
  const std::size_t newOffset = (address - base) + bytes;
  if (newOffset > capacity_)
    throw InvariantError(
        "LDM overflow on CPE " +
        (cpeId_ >= 0 ? std::to_string(cpeId_) : std::string("<standalone>")) +
        ": requested " + std::to_string(bytes) + " bytes (" +
        std::to_string(newOffset - offset_) + " with alignment) at offset " +
        std::to_string(offset_) + ", capacity " +
        std::to_string(capacity_) + ", high water " +
        std::to_string(highWater_) +
        " — kernel working set exceeds scratchpad capacity");
  offset_ = newOffset;
  if (offset_ > highWater_) highWater_ = offset_;
  // Zero-fills only the bytes handed out for the first time.
  if (offset_ > arena_.size()) arena_.resize(offset_);
  return reinterpret_cast<void*>(address);
}

}  // namespace tkmc
