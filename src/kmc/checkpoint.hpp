#pragma once

#include <string>

#include "kmc/serial_engine.hpp"
#include "lattice/lattice_state.hpp"

namespace tkmc {

/// Checkpoint/restart for serial AKMC runs.
///
/// A checkpoint file carries the full lattice occupation plus the
/// engine's time, step count, and RNG state. Because propensities, the
/// vacancy cache, and the triple-encoding tables are pure functions of
/// the lattice, restarting from a checkpoint continues the original
/// trajectory *bit-exactly* (tested) — the property that makes
/// long-running mesoscale campaigns restartable after machine failures.
///
/// Format v3 (current) stores the occupation CET-packed — four 2-bit
/// species codes per byte, hex-encoded — matching the paged in-memory
/// store, and seals the file with a `crc32 <hex>` footer computed over
/// everything before it, so truncation and bit flips are detected at
/// load instead of silently feeding the engine bad state. The writer is
/// atomic: the body goes to `<path>.tmp` which is renamed over the
/// target, and an existing good file is rotated to `<path>.bak` first.
/// v2 files (one digit per site, CRC footer) and v1 files (no footer)
/// from older builds still load, read-only, through the same entry
/// points; nothing writes them any more.
struct CheckpointData {
  int cellsX = 0;
  int cellsY = 0;
  int cellsZ = 0;
  double latticeConstant = 0.0;
  std::vector<Species> species;
  // Vacancy coordinates in the engine's list order. The selection RNG
  // maps to vacancies *by index*, so bit-exact resume requires restoring
  // the exact ordering, not just the occupation.
  std::vector<Vec3i> vacancyOrder;
  SerialEngine::Checkpoint engine;

  /// Reconstructs the lattice occupation. Throws InvariantError when the
  /// vacancy list disagrees with the occupation or names a coordinate
  /// that is not a lattice site (corrupt or forged checkpoint content
  /// that passed the format checks).
  LatticeState restoreState() const;
};

/// Writes a format-v3 checkpoint of `state` and `engine` to `path`:
/// packed-species body, CRC32 footer, atomic temp-file + rename,
/// existing file rotated to `<path>.bak`. Throws IoError on filesystem
/// failures.
void saveCheckpoint(const std::string& path, const LatticeState& state,
                    const SerialEngine& engine);

/// Reads a checkpoint written by saveCheckpoint() (v3, CRC-verified) or
/// by an older build (v2, CRC-verified; v1, no footer). Throws IoError on
/// missing files, bad magic/version, truncation, or CRC mismatch.
CheckpointData loadCheckpoint(const std::string& path);

/// Result of a fallback-aware load: the data plus which replica served
/// it.
struct CheckpointLoadResult {
  CheckpointData data;
  bool usedBackup = false;
};

/// Loads `path`, degrading gracefully to `<path>.bak` when the primary
/// is missing, corrupt, or truncated anywhere in the body (including mid
/// packed-hex occupation line). Throws IoError (with both causes) only
/// when neither replica is loadable.
CheckpointLoadResult loadCheckpointWithFallback(const std::string& path);

}  // namespace tkmc
