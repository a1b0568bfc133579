#include "common/sealed_file.hpp"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "common/crc32.hpp"
#include "common/error.hpp"

namespace tkmc {

std::string readWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw IoError("cannot open " + path);
  std::string contents;
  char buffer[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
    contents.append(buffer, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) throw IoError("failed reading " + path);
  return contents;
}

void publishAtomic(const std::string& path, std::string_view contents,
                   const std::function<void()>& beforeRename) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw IoError("cannot open temp file for writing: " + tmp);
  const bool ok =
      std::fwrite(contents.data(), 1, contents.size(), f) == contents.size() &&
      std::fflush(f) == 0 && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    throw IoError("failed writing temp file: " + tmp);
  }
  try {
    if (beforeRename) beforeRename();
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw IoError("cannot move " + tmp + " into place at " + path + ": " +
                  ec.message());
  }
}

std::uint32_t sealWithCrc(std::string& body) {
  const std::uint32_t crc = crc32(body.data(), body.size());
  body += "crc32 " + crcHex(crc) + "\n";
  return crc;
}

Unsealed unseal(const std::string& contents, const std::string& what) {
  // The footer is the last line. Requiring its newline makes a file cut
  // anywhere inside the footer a typed failure, like a cut in the body.
  const std::string::size_type foot = contents.rfind("\ncrc32 ");
  if (foot == std::string::npos || contents.back() != '\n')
    throw IoError("missing CRC32 footer (truncated?): " + what);
  const std::size_t bodyBytes = foot + 1;
  const std::size_t fieldAt = bodyBytes + 6;  // past "crc32 "
  const std::uint32_t stored = parseCrcField(
      std::string_view(contents).substr(fieldAt,
                                        contents.size() - 1 - fieldAt),
      what);
  const std::uint32_t computed = crc32(contents.data(), bodyBytes);
  if (computed != stored)
    throw IoError("failed CRC32 check (stored " + crcHex(stored) +
                  ", computed " + crcHex(computed) + "): " + what);
  return {contents.substr(0, bodyBytes), computed};
}

std::uint32_t parseCrcField(std::string_view field, const std::string& what) {
  // from_chars takes no sign, prefix or whitespace; the length check
  // does the rest.
  std::uint32_t value = 0;
  const char* end = field.data() + field.size();
  const auto [stop, ec] = std::from_chars(field.data(), end, value, 16);
  if (field.size() != 8 || ec != std::errc() || stop != end)
    throw IoError("malformed CRC32 field '" + std::string(field) +
                  "' (want 8 hex digits): " + what);
  return value;
}

std::string crcHex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

}  // namespace tkmc
