#include "lattice/packed_hex.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tkmc {

void PackedHexEncoder::flushByte() {
  static const char* kHex = "0123456789abcdef";
  out_ += kHex[packed_ >> 4];
  out_ += kHex[packed_ & 0xf];
  packed_ = 0;
  slot_ = 0;
  if (++bytes_ % 40 == 0) out_ += '\n';
}

void PackedHexEncoder::finish() {
  if (slot_ != 0) flushByte();
  if (bytes_ % 40 != 0) out_ += '\n';
}

void appendPackedHex(std::string& out, const std::vector<std::uint8_t>& run) {
  PackedHexEncoder encoder(out);
  for (const std::uint8_t code : run) encoder.put(code);
  encoder.finish();
}

std::vector<std::uint8_t> decodePackedHex(std::istream& in, std::size_t sites,
                                          const std::string& what) {
  const auto nextDigit = [&in] {
    int c;
    do {
      c = in.get();
    } while (c == '\n' || c == '\r');
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::vector<std::uint8_t> run;
  // The count comes from the file: cap the up-front reservation so a
  // forged header cannot allocate more than the text could ever hold.
  run.reserve(std::min<std::size_t>(sites, std::size_t{1} << 20));
  while (run.size() < sites) {
    const int hi = nextDigit();
    const int lo = hi < 0 ? -1 : nextDigit();
    if (lo < 0)
      throw IoError("occupation truncated: decoded " +
                    std::to_string(run.size()) + " of " +
                    std::to_string(sites) + " sites: " + what);
    const int byte = (hi << 4) | lo;
    for (int slot = 0; slot < 4 && run.size() < sites; ++slot) {
      const int code = (byte >> (2 * slot)) & 3;
      if (code > 2)
        throw IoError("occupation carries invalid species code: " + what);
      run.push_back(static_cast<std::uint8_t>(code));
    }
  }
  return run;
}

}  // namespace tkmc
