#include "parallel/sim_comm.hpp"

#include <string>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/telemetry/telemetry.hpp"

namespace tkmc {
namespace {

namespace tm = telemetry;

std::string channelName(int from, int to, int tag) {
  return "(" + std::to_string(from) + " -> " + std::to_string(to) +
         ", tag " + std::to_string(tag) + ")";
}

// Flow-event name per message class so the trace UI groups arrows by
// protocol. Tag values match the engine's channel map (DESIGN.md §14):
// fold 50, commit votes 60/61, ghost-exchange slabs >= 100.
const char* flowName(int tag) {
  if (tag == 50) return "flow.fold";
  if (tag == 60) return "flow.vote";
  if (tag == 61) return "flow.commit";
  if (tag >= 100) return "flow.ghost";
  return "flow.msg";
}

}  // namespace

SimComm::SimComm(int ranks)
    : ranks_(ranks), alive_(static_cast<std::size_t>(ranks > 0 ? ranks : 1),
                            true),
      beats_(ranks > 0 ? ranks : 1, 0.0) {
  require(ranks > 0, "communicator needs at least one rank");
  tm::flightRecorder().configureRanks(ranks);
}

std::uint64_t SimComm::channelKey(int from, int to, int tag) {
  // Ranks are < kMaxRanks (512) and tags < 2^20, so the fields pack
  // without collision; +1 keeps rank 0 distinguishable from "no field".
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from + 1))
          << 40) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(to + 1))
          << 20) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag));
}

void SimComm::send(int from, int to, int tag,
                   std::vector<std::uint8_t> payload) {
  require(from >= 0 && from < ranks_ && to >= 0 && to < ranks_,
          "rank out of range");
  const std::uint64_t key64 = channelKey(from, to, tag);
  std::lock_guard<std::mutex> lock(mutex_);
  // A dead rank sends nothing — not even a lease renewal. Its peers see
  // pure silence on the channel, which is what the heartbeat detector
  // classifies.
  if (!alive_[static_cast<std::size_t>(from)]) return;
  // Fail-stop injection: the sending rank crashes *before* this frame
  // leaves, so at least one peer is left waiting on the channel.
  if (faultFires("comm.rank_kill", key64)) {
    killRankLocked(from);
    return;
  }
  beats_.beat(from, nowMs_);
  bytesSent_ += payload.size();
  ++messagesSent_;
  const Key key{from, to, tag};
  Frame frame;
  frame.seq = nextSendSeq_[key]++;
  frame.crc = crc32(payload.data(), payload.size());
  frame.lamport = tm::flightRecorder().lamportTick();
  frame.payload = std::move(payload);
  tm::flightRecorder().record(from, tm::BlackboxEventType::kCommSend, tag,
                              frame.seq, frame.payload.size());
  // Injectable link failures. Corruption happens after framing so the
  // CRC no longer matches; an empty payload corrupts the checksum field
  // itself (same detection path).
  if (faultFires("comm.corrupt", key64)) {
    if (frame.payload.empty())
      frame.crc ^= 1u;
    else
      frame.payload[frame.payload.size() / 2] ^= 0x20u;
  }
  const bool dropped = faultFires("comm.drop", key64);
  const bool duplicated = faultFires("comm.duplicate", key64);
  if (dropped) return;  // seq already advanced -> receiver sees the gap
  // Flow start only for frames that actually enter the mailbox — a
  // dropped frame must not leave a dangling arrow in the trace.
  tm::tracer().flowBegin(flowName(tag), frame.lamport, from);
  auto& box = mailboxes_[key];
  if (duplicated) box.push_back(frame);
  box.push_back(std::move(frame));
}

std::uint64_t SimComm::expectedSeqLocked(const Key& key) const {
  const auto it = nextRecvSeq_.find(key);
  return it == nextRecvSeq_.end() ? 0 : it->second;
}

std::vector<std::uint8_t> SimComm::receiveLocked(int to, int from, int tag) {
  const Key key{from, to, tag};
  std::uint64_t& expected = nextRecvSeq_[key];
  auto it = mailboxes_.find(key);
  // Sequence numbers grow per channel, so duplicates sit in front of the
  // frame they duplicate; discard them before delivering.
  while (it != mailboxes_.end() && !it->second.empty() &&
         it->second.front().seq < expected) {
    it->second.pop_front();
    ++duplicatesDropped_;
  }
  if (it != mailboxes_.end() && it->second.empty()) {
    mailboxes_.erase(it);
    it = mailboxes_.end();
  }
  if (it == mailboxes_.end())
    throw CommError("no pending message for " + channelName(from, to, tag));
  Frame frame = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) mailboxes_.erase(it);
  // The frame did cross the link (even if it now fails validation):
  // fold the sender's Lamport stamp in and close its flow arrow, so
  // causality and the trace stay intact on every outcome below.
  tm::flightRecorder().lamportObserve(frame.lamport);
  tm::tracer().flowEnd(flowName(tag), frame.lamport, to);
  if (frame.seq > expected) {
    const std::uint64_t wanted = expected;
    expected = frame.seq + 1;
    tm::flightRecorder().record(to, tm::BlackboxEventType::kCommError, tag,
                                frame.seq, 1 /* sequence gap */);
    throw CommError("message lost on " + channelName(from, to, tag) +
                    ": expected seq " + std::to_string(wanted) + ", got seq " +
                    std::to_string(frame.seq));
  }
  expected = frame.seq + 1;
  if (crc32(frame.payload.data(), frame.payload.size()) != frame.crc) {
    ++crcFailures_;
    tm::flightRecorder().record(to, tm::BlackboxEventType::kCommError, tag,
                                frame.seq, 2 /* CRC mismatch */);
    throw CommError("message corrupt on " + channelName(from, to, tag) +
                    ": payload failed CRC32 framing check");
  }
  tm::flightRecorder().record(to, tm::BlackboxEventType::kCommRecv, tag,
                              frame.seq, frame.lamport);
  return std::move(frame.payload);
}

std::vector<std::uint8_t> SimComm::receive(int to, int from, int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  return receiveLocked(to, from, tag);
}

std::vector<std::uint8_t> SimComm::receiveReliable(
    int to, int from, int tag, const std::vector<std::uint8_t>& resend,
    int maxAttempts, std::atomic<std::uint64_t>& retries, const char* what,
    const Accept& accept) {
  const double waitStart = nowMs();
  for (int attempt = 1;; ++attempt) {
    try {
      std::vector<std::uint8_t> payload = receive(to, from, tag);
      if (accept) accept(payload);
      return payload;
    } catch (const CommError&) {
      // Purge the failed channel so the retransmission gets a fresh
      // sequence number.
      resetChannel(from, to, tag);
      if (leaseEnabled()) {
        // A resend from a live sender renews its lease, so from the
        // second attempt on a live peer polls kAlive and the normal
        // attempt bound applies; only a truly silent peer keeps the
        // receiver polling until its lease expires.
        const PeerVerdict verdict = pollPeer(from, waitStart);
        if (verdict == PeerVerdict::kFailed) {
          const double detectMs = nowMs() - lastBeatMs(from);
          tm::flightRecorder().record(
              to, tm::BlackboxEventType::kLeaseExpired, tag,
              static_cast<std::uint64_t>(from),
              static_cast<std::uint64_t>(detectMs));
          throw RankFailure(from, detectMs,
                            "rank " + std::to_string(from) + " fail-stop: " +
                                what + " lease expired on tag " +
                                std::to_string(tag));
        }
        if (attempt >= maxAttempts && verdict == PeerVerdict::kAlive) throw;
      } else if (attempt >= maxAttempts) {
        throw;
      }
      // A killed sender's resend would do nothing: keep polling its
      // lease without counting, tracing or "resending" a retry.
      if (!rankAlive(from)) continue;
      retries.fetch_add(1, std::memory_order_relaxed);
      tm::tracer().instant("comm.retry", to);
      send(from, to, tag, resend);
    }
  }
}

bool SimComm::hasMessageLocked(const Key& key) const {
  const auto it = mailboxes_.find(key);
  if (it == mailboxes_.end() || it->second.empty()) return false;
  // Per-channel sequence numbers are monotone, so the newest frame
  // decides whether anything undelivered remains.
  return it->second.back().seq >= expectedSeqLocked(key);
}

bool SimComm::hasMessage(int to, int from, int tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hasMessageLocked(Key{from, to, tag});
}

int SimComm::pendingCount(int to, int tag) const {
  std::lock_guard<std::mutex> lock(mutex_);
  int count = 0;
  for (const auto& [key, queue] : mailboxes_) {
    if (key.to != to || key.tag != tag) continue;
    const std::uint64_t expected = expectedSeqLocked(key);
    for (const Frame& f : queue)
      if (f.seq >= expected) ++count;
  }
  return count;
}

std::vector<std::pair<int, std::vector<std::uint8_t>>> SimComm::receiveAll(
    int to, int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<int, std::vector<std::uint8_t>>> result;
  for (int from = 0; from < ranks_; ++from) {
    while (hasMessageLocked(Key{from, to, tag}))
      result.emplace_back(from, receiveLocked(to, from, tag));
  }
  return result;
}

void SimComm::resetChannel(int from, int to, int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Key key{from, to, tag};
  mailboxes_.erase(key);
  nextSendSeq_.erase(key);
  nextRecvSeq_.erase(key);
}

void SimComm::resetChannels(int tagLo, int tagHi) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto inRange = [&](const Key& k) {
    return k.tag >= tagLo && k.tag < tagHi;
  };
  for (auto it = mailboxes_.begin(); it != mailboxes_.end();)
    it = inRange(it->first) ? mailboxes_.erase(it) : std::next(it);
  for (auto it = nextSendSeq_.begin(); it != nextSendSeq_.end();)
    it = inRange(it->first) ? nextSendSeq_.erase(it) : std::next(it);
  for (auto it = nextRecvSeq_.begin(); it != nextRecvSeq_.end();)
    it = inRange(it->first) ? nextRecvSeq_.erase(it) : std::next(it);
}

void SimComm::resetAllChannels() {
  std::lock_guard<std::mutex> lock(mutex_);
  mailboxes_.clear();
  nextSendSeq_.clear();
  nextRecvSeq_.clear();
}

void SimComm::killRankLocked(int rank) {
  require(rank >= 0 && rank < ranks_, "rank out of range");
  if (alive_[static_cast<std::size_t>(rank)])
    tm::flightRecorder().record(rank, tm::BlackboxEventType::kRankKilled, 0,
                                static_cast<std::uint64_t>(rank));
  alive_[static_cast<std::size_t>(rank)] = false;
}

void SimComm::killRank(int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  killRankLocked(rank);
}

bool SimComm::rankAlive(int rank) const {
  require(rank >= 0 && rank < ranks_, "rank out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  return alive_[static_cast<std::size_t>(rank)];
}

int SimComm::aliveCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int count = 0;
  for (int r = 0; r < ranks_; ++r)
    if (alive_[static_cast<std::size_t>(r)]) ++count;
  return count;
}

std::vector<int> SimComm::aliveRanks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int> ranks;
  for (int r = 0; r < ranks_; ++r)
    if (alive_[static_cast<std::size_t>(r)]) ranks.push_back(r);
  return ranks;
}

void SimComm::setLease(double intervalMs, double timeoutMs) {
  require(intervalMs > 0.0, "lease poll interval must be positive");
  std::lock_guard<std::mutex> lock(mutex_);
  leaseIntervalMs_ = intervalMs;
  leaseTimeoutMs_ = timeoutMs;
  beats_.setTimeoutMs(timeoutMs);
}

double SimComm::nowMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nowMs_;
}

void SimComm::tick(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  nowMs_ += ms;
}

double SimComm::lastBeatMs(int rank) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return beats_.lastBeatMs(rank);
}

SimComm::PeerVerdict SimComm::pollPeer(int from, double waitStartMs) {
  require(from >= 0 && from < ranks_, "rank out of range");
  require(leaseEnabled(), "pollPeer needs an armed lease (setLease)");
  std::lock_guard<std::mutex> lock(mutex_);
  nowMs_ += leaseIntervalMs_;
  if (beats_.expired(from, nowMs_)) {
    killRankLocked(from);
    return PeerVerdict::kFailed;
  }
  return beats_.lastBeatMs(from) >= waitStartMs ? PeerVerdict::kAlive
                                                : PeerVerdict::kSilent;
}

std::uint64_t SimComm::totalBytesSent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytesSent_;
}

std::uint64_t SimComm::totalMessagesSent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return messagesSent_;
}

std::uint64_t SimComm::crcFailures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return crcFailures_;
}

std::uint64_t SimComm::duplicatesDropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return duplicatesDropped_;
}

void SimComm::resetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  bytesSent_ = 0;
  messagesSent_ = 0;
  crcFailures_ = 0;
  duplicatesDropped_ = 0;
}

}  // namespace tkmc
