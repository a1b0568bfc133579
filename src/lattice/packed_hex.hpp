#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace tkmc {

/// Text form of a CET-packed occupation run, shared by the serial v3
/// checkpoint body and coordinated shards: four 2-bit species codes per
/// byte (low slots first, the SpeciesStore page layout), each byte
/// written as two lowercase hex digits, 80 digits (160 sites) per line,
/// the last line newline-terminated.
class PackedHexEncoder {
 public:
  explicit PackedHexEncoder(std::string& out) : out_(out) {}

  /// Appends one site's species code (0 = Fe, 1 = Cu, 2 = vacancy).
  void put(std::uint8_t code) {
    packed_ = static_cast<std::uint8_t>(packed_ | (code << (2 * slot_)));
    if (++slot_ == 4) flushByte();
  }

  /// Emits a partial final byte and the final newline. Call once.
  void finish();

 private:
  void flushByte();

  std::string& out_;
  std::uint8_t packed_ = 0;
  int slot_ = 0;
  std::size_t bytes_ = 0;
};

/// Encodes a one-code-per-site run.
void appendPackedHex(std::string& out, const std::vector<std::uint8_t>& run);

/// Decodes `sites` species codes from `in`, skipping line breaks. Throws
/// IoError naming `what` when the text ends early, holds a non-hex
/// character, or carries code 3.
std::vector<std::uint8_t> decodePackedHex(std::istream& in, std::size_t sites,
                                          const std::string& what);

}  // namespace tkmc
