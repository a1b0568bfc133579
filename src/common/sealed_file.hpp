#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace tkmc {

/// The on-disk discipline every checkpoint artifact shares — serial
/// checkpoints, shards, manifests, placement maps — plus the telemetry
/// and blackbox dumps: whole-file reads, temp-then-rename publishing, and
/// the `crc32 <8 hex digits>` footer that seals a text body. All failures
/// surface as IoError.

/// Reads the whole file at `path`. Throws IoError when it cannot be
/// opened or read.
std::string readWholeFile(const std::string& path);

/// Publishes `contents` at `path` atomically: the bytes go to
/// `<path>.tmp`, which is renamed over `path` once fully flushed, so a
/// crash leaves either the old file (plus perhaps a stray .tmp) or the
/// new one — never a torn file under the final name. `beforeRename`, when
/// set, runs once the temp file is complete (the serial checkpoint
/// rotates its `.bak` replica there). Throws IoError; the temp file is
/// removed on any failure, including an exception from `beforeRename`.
void publishAtomic(const std::string& path, std::string_view contents,
                   const std::function<void()>& beforeRename = {});

/// Seals `body` (which must end with a newline) by appending the footer
/// `crc32 <8 lowercase hex digits>\n` over everything before it, and
/// returns that CRC — the value manifests and delta-chain links record.
std::uint32_t sealWithCrc(std::string& body);

/// A verified sealed file: the body the footer covers (through the
/// newline before `crc32`) and its CRC.
struct Unsealed {
  std::string body;
  std::uint32_t crc = 0;
};

/// Verifies the footer of `contents` and splits it off. Throws IoError
/// naming `what` when the footer is missing, malformed, or disagrees
/// with the body.
Unsealed unseal(const std::string& contents, const std::string& what);

/// Parses a CRC field of exactly eight hex digits. Throws IoError naming
/// `what` on anything else (wrong length, sign, non-hex character).
std::uint32_t parseCrcField(std::string_view field, const std::string& what);

/// `crc` as eight lowercase hex digits (the inverse of parseCrcField).
std::string crcHex(std::uint32_t crc);

}  // namespace tkmc
