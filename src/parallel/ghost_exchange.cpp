#include "parallel/ghost_exchange.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/telemetry/telemetry.hpp"

namespace tkmc {
namespace {

constexpr int kTagBase = 100;

// Slab payload header byte, then the body.
constexpr std::uint8_t kFullSlab = 0;    // packCellBox() bytes
constexpr std::uint8_t kChangeList = 1;  // (u32 offset, u8 species) pairs
constexpr std::size_t kChangeBytes = 5;

constexpr const char* kAxisSpanName[3] = {"ghost.axis_x", "ghost.axis_y",
                                          "ghost.axis_z"};

int axisOf(Vec3i v, int axis) {
  return axis == 0 ? v.x : (axis == 1 ? v.y : v.z);
}

void setAxis(Vec3i& v, int axis, int value) {
  if (axis == 0)
    v.x = value;
  else if (axis == 1)
    v.y = value;
  else
    v.z = value;
}

std::size_t boxSites(Vec3i lo, Vec3i hi) {
  return static_cast<std::size_t>(hi.x - lo.x) * (hi.y - lo.y) *
         (hi.z - lo.z) * 2;
}

// Decodes a change-list body; throws CommError on a malformed one so the
// receive loop retransmits before anything is written.
std::vector<Subdomain::BoxChange> decodeChanges(
    const std::vector<std::uint8_t>& payload, std::size_t boxSiteCount) {
  if ((payload.size() - 1) % kChangeBytes != 0)
    throw CommError("malformed ghost change list");
  std::vector<Subdomain::BoxChange> changes((payload.size() - 1) /
                                            kChangeBytes);
  const std::uint8_t* p = payload.data() + 1;
  for (Subdomain::BoxChange& change : changes) {
    change.offset = static_cast<std::uint32_t>(p[0]) |
                    static_cast<std::uint32_t>(p[1]) << 8 |
                    static_cast<std::uint32_t>(p[2]) << 16 |
                    static_cast<std::uint32_t>(p[3]) << 24;
    if (change.offset >= boxSiteCount ||
        p[4] > static_cast<std::uint8_t>(Species::kVacancy))
      throw CommError("malformed ghost change list");
    change.species = static_cast<Species>(p[4]);
    p += kChangeBytes;
  }
  return changes;
}

}  // namespace

GhostExchange::GhostExchange(const Decomposition& decomp, SimComm& comm)
    : decomp_(decomp), comm_(comm),
      slabBuffers_(static_cast<std::size_t>(decomp.rankCount()) * 6),
      fullReceived_(static_cast<std::size_t>(decomp.rankCount()), 0) {
  // Axes decomposed across at least two ranks exchange slabs; an axis
  // with a single rank carries no ghost shell at all (the subdomain
  // already spans the whole period there), so flat grids like 2x2x1 are
  // legal and that axis's stage is simply skipped.
}

std::vector<std::uint8_t>& GhostExchange::slabBuffer(int rank, int axis,
                                                     int dir) {
  return slabBuffers_[static_cast<std::size_t>(rank) * 6 +
                      static_cast<std::size_t>(axis) * 2 + (dir > 0 ? 1 : 0)];
}

GhostExchange::Box GhostExchange::sendBox(const Subdomain& sd, int axis,
                                          int dir) const {
  const Vec3i e = sd.extentCells();
  const Vec3i g = sd.ghostCellsVec();
  Box box;
  // Axes exchanged after `axis` (lower axis index = later stage) span the
  // owned range; axes already exchanged span the full extended range.
  // Stage order is z (2), y (1), x (0).
  for (int a = 0; a < 3; ++a) {
    if (a == axis) continue;
    if (a > axis) {
      // Already exchanged: extended range.
      setAxis(box.lo, a, 0);
      setAxis(box.hi, a, axisOf(e, a) + 2 * axisOf(g, a));
    } else {
      // Not yet exchanged: owned range only.
      setAxis(box.lo, a, axisOf(g, a));
      setAxis(box.hi, a, axisOf(g, a) + axisOf(e, a));
    }
  }
  const int ga = axisOf(g, axis);
  if (dir > 0) {
    setAxis(box.lo, axis, axisOf(e, axis));          // top g owned cells
    setAxis(box.hi, axis, axisOf(e, axis) + ga);
  } else {
    setAxis(box.lo, axis, ga);                       // bottom g owned cells
    setAxis(box.hi, axis, 2 * ga);
  }
  return box;
}

GhostExchange::Box GhostExchange::recvBox(const Subdomain& sd, int axis,
                                          int dir) const {
  // The slab that travelled toward `dir` fills the receiver's ghost
  // cells on the side facing its sender: data sent toward +1 lands in
  // the receiver's low-side ghost, data sent toward -1 in its high side.
  Box box = sendBox(sd, axis, dir);
  const Vec3i e = sd.extentCells();
  const int ga = axisOf(sd.ghostCellsVec(), axis);
  if (dir > 0) {
    setAxis(box.lo, axis, 0);  // receiver's low ghost
    setAxis(box.hi, axis, ga);
  } else {
    setAxis(box.lo, axis, ga + axisOf(e, axis));  // receiver's high ghost
    setAxis(box.hi, axis, 2 * ga + axisOf(e, axis));
  }
  return box;
}

void GhostExchange::sendSlabs(int rank, Subdomain& sd, int axis) {
  const bool full = resyncRound_ || sd.resyncPending() ||
                    fullReceived_[static_cast<std::size_t>(rank)] != 0;
  for (int dir : {-1, +1}) {
    Vec3i dirVec{};
    setAxis(dirVec, axis, dir);
    const int neighbor = decomp_.neighborRank(rank, dirVec);
    const Box box = sendBox(sd, axis, dir);
    // Buffer the payload for ARQ: a retransmission must not re-read the
    // sender's live species store, which another rank thread may be
    // unpacking into by then.
    std::vector<std::uint8_t>& buffer = slabBuffer(rank, axis, dir);
    const std::size_t slabBytes = boxSites(box.lo, box.hi);
    std::vector<Subdomain::BoxChange> changes;
    if (!full) changes = sd.changesInBox(box.lo, box.hi);
    if (full || changes.size() * kChangeBytes > slabBytes) {
      resyncSlabs_.fetch_add(1, std::memory_order_relaxed);
      const std::vector<std::uint8_t> slab = sd.packCellBox(box.lo, box.hi);
      buffer.assign(1, kFullSlab);
      buffer.insert(buffer.end(), slab.begin(), slab.end());
    } else {
      changeSites_.fetch_add(changes.size(), std::memory_order_relaxed);
      buffer.assign(1, kChangeList);
      for (const Subdomain::BoxChange& change : changes) {
        buffer.push_back(static_cast<std::uint8_t>(change.offset));
        buffer.push_back(static_cast<std::uint8_t>(change.offset >> 8));
        buffer.push_back(static_cast<std::uint8_t>(change.offset >> 16));
        buffer.push_back(static_cast<std::uint8_t>(change.offset >> 24));
        buffer.push_back(static_cast<std::uint8_t>(change.species));
      }
    }
    comm_.send(rank, neighbor, kTagBase + axis * 2 + (dir > 0 ? 1 : 0),
               buffer);
  }
}

void GhostExchange::receiveSlabs(int rank, std::vector<Subdomain>& domains,
                                 int axis) {
  // `dir` is the direction the data travelled: a slab sent toward +1
  // arrives from the -1 neighbour and fills the receiver's low-side
  // ghost (the side facing the sender).
  Subdomain& sd = domains[static_cast<std::size_t>(rank)];
  for (int dir : {-1, +1}) {
    Vec3i dirVec{};
    setAxis(dirVec, axis, -dir);
    const int source = decomp_.neighborRank(rank, dirVec);
    const Box box = recvBox(sd, axis, dir);
    const std::size_t sites = boxSites(box.lo, box.hi);
    // Applying inside the ARQ's accept step means a malformed slab is
    // retransmitted like a lost one; nothing is written before the
    // payload parses. The resend source is the copy the sender
    // buffered at pack time, with no read of its live store.
    comm_.receiveReliable(
        rank, source, kTagBase + axis * 2 + (dir > 0 ? 1 : 0),
        slabBuffer(source, axis, dir), maxAttempts_, retries_, "ghost slab",
        [&](const std::vector<std::uint8_t>& payload) {
          if (!payload.empty() && payload[0] == kChangeList) {
            sd.applyChanges(box.lo, box.hi, decodeChanges(payload, sites));
          } else if (payload.size() == 1 + sites && payload[0] == kFullSlab) {
            sd.unpackCellBox(box.lo, box.hi,
                             std::vector<std::uint8_t>(payload.begin() + 1,
                                                       payload.end()));
            fullReceived_[static_cast<std::size_t>(rank)] = 1;
          } else {
            throw CommError("malformed ghost slab");
          }
        });
  }
}

void GhostExchange::setMaxAttempts(int attempts) {
  require(attempts >= 1, "ghost exchange needs at least one attempt");
  maxAttempts_ = attempts;
}

void GhostExchange::exchangeAll(std::vector<Subdomain>& domains,
                                RankTeam* team) {
  require(static_cast<int>(domains.size()) == decomp_.rankCount(),
          "one subdomain per rank required");
  TKMC_SPAN("engine.ghost_exchange");
  const std::uint64_t resyncBefore = resyncSlabs();
  const std::uint64_t sitesBefore = changeSites();
  resyncRound_ = false;
  for (int r = 0; r < decomp_.rankCount(); ++r)
    if (comm_.rankAlive(r) &&
        domains[static_cast<std::size_t>(r)].resyncPending())
      resyncRound_ = true;
  std::fill(fullReceived_.begin(), fullReceived_.end(), 0);
  // A null team means inline: the same phases, in rank order, on the
  // caller's thread.
  RankTeam inlineTeam(decomp_.rankCount(), /*threaded=*/false);
  RankTeam& ranks = team != nullptr ? *team : inlineTeam;
  for (int axis : {2, 1, 0}) {
    // Single-rank axes carry no ghost shell: nothing to exchange.
    if (axisOf(decomp_.rankGrid(), axis) < 2) continue;
    TKMC_SPAN(kAxisSpanName[axis]);
    // Two halves with a barrier between: every alive rank packs and
    // posts its slabs, then every alive rank unpacks into its own ghost
    // shell.
    ranks.run([&](int r) {
      if (!comm_.rankAlive(r)) return;
      sendSlabs(r, domains[static_cast<std::size_t>(r)], axis);
    });
    ranks.run([&](int r) {
      if (!comm_.rankAlive(r)) return;
      receiveSlabs(r, domains, axis);
    });
  }
  for (Subdomain& sd : domains) sd.clearChanges();
  if (telemetry::enabled()) {
    telemetry::metrics()
        .counter("ghost.resync_slabs")
        .add(resyncSlabs() - resyncBefore);
    telemetry::metrics()
        .counter("ghost.change_sites")
        .add(changeSites() - sitesBefore);
  }
}

}  // namespace tkmc
