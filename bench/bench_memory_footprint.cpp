// Lattice occupation footprint: packed paged store versus the dense
// byte-per-site representation it retired.
//
// The paper's 50-trillion-atom capacity rests on never allocating one
// byte per site; occupation lives in CET-packed pages (4 sites/byte)
// with pure-matrix pages collapsed to a fill value. This bench allocates
// real boxes at the Cu fractions and vacancy counts the RPV workload
// uses, reports allocated bytes/site and the MemoryTracker peak across
// the sweep, and snapshots everything as gauges so
// `scripts/bench_gate.py` can flag footprint regressions against the
// committed baseline. Acceptance: a mostly-Fe box stays at or under 0.30 bytes/site
// (the dense representation was >= 1.0).

#include <cstdio>
#include <string>

#include "common/memory_tracker.hpp"
#include "common/table_writer.hpp"
#include "common/telemetry/telemetry.hpp"
#include "lattice/lattice_state.hpp"

using namespace tkmc;

namespace {

constexpr int kCells = 32;  // 2 * 32^3 = 65536 sites, 16 pages
const double kCuFractions[] = {0.0, 0.015, 0.1};
const std::int64_t kVacancyCounts[] = {1, 64};

/// Gauge-name fragment for a Cu fraction: 0.015 -> "cu0150" (x1e4).
std::string cuTag(double f) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "cu%04d", static_cast<int>(f * 1e4 + 0.5));
  return buf;
}

}  // namespace

int main() {
  MemoryTracker tracker;
  TableWriter out({"Cu fraction", "vacancies", "pages (mat/total)",
                   "packed bytes", "bytes/site", "dense bytes/site"});

  telemetry::ScopedEnable record;
  telemetry::MetricsRegistry& reg = telemetry::metrics();

  bool mostlyFeOk = true;
  for (const double cu : kCuFractions) {
    for (const std::int64_t vacancies : kVacancyCounts) {
      LatticeState state(BccLattice(kCells, kCells, kCells, 2.87));
      Rng rng(2021 ^ static_cast<std::uint64_t>(cu * 1e4) ^
              static_cast<std::uint64_t>(vacancies));
      state.randomAlloy(cu, vacancies, rng);

      const SpeciesStore& store = state.store();
      const double perSite = store.bytesPerSite();
      const double densePerSite = 1.0;  // retired std::vector<Species>
      const std::string key =
          cuTag(cu) + "_v" + std::to_string(vacancies);

      tracker.set("lattice_species." + key, store.memoryBytes());
      tracker.set("vacancy_list." + key,
                  state.vacancies().size() * sizeof(Vec3i));

      reg.gauge("bench.memfoot.bytes_per_site." + key).set(perSite);
      reg.gauge("bench.memfoot.packed_bytes." + key)
          .set(static_cast<double>(store.memoryBytes()));
      reg.gauge("bench.memfoot.materialized_pages." + key)
          .set(static_cast<double>(store.materializedPageCount()));

      char pages[32];
      std::snprintf(pages, sizeof(pages), "%lld/%lld",
                    static_cast<long long>(store.materializedPageCount()),
                    static_cast<long long>(store.pageCount()));
      out.addRow({TableWriter::num(cu, 3), std::to_string(vacancies), pages,
                  std::to_string(store.memoryBytes()),
                  TableWriter::num(perSite, 4),
                  TableWriter::num(densePerSite, 4)});

      // The acceptance bar applies to mostly-Fe boxes (<= 1.5 at.% Cu).
      if (cu <= 0.015 && perSite > 0.30) mostlyFeOk = false;
    }
  }

  std::printf("Lattice occupation footprint — %d^3 cells (%d sites), paged "
              "2-bit store, page = %lld sites\n",
              kCells, 2 * kCells * kCells * kCells,
              static_cast<long long>(SpeciesStore::kPageSites));
  out.print();
  std::printf("\nMemoryTracker peak across sweep: %s MiB (%zu bytes)\n",
              MemoryTracker::toMiB(tracker.peakBytes()).c_str(),
              tracker.peakBytes());
  std::printf("mostly-Fe acceptance (<= 0.30 bytes/site): %s\n",
              mostlyFeOk ? "PASS" : "FAIL");

  reg.gauge("bench.memfoot.peak_bytes")
      .set(static_cast<double>(tracker.peakBytes()));
  reg.gauge("bench.memfoot.mostly_fe_ok").set(mostlyFeOk ? 1.0 : 0.0);
  reg.writeJson("BENCH_memory_footprint.metrics.json");
  std::printf("wrote BENCH_memory_footprint.metrics.json\n");
  return mostlyFeOk ? 0 : 1;
}
