#include "parallel/remote_store.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/sealed_file.hpp"
#include "common/telemetry/telemetry.hpp"

namespace tkmc {

namespace fs = std::filesystem;

namespace {

void countRemote(const char* name, std::uint64_t n = 1) {
  if (telemetry::enabled()) telemetry::metrics().counter(name).add(n);
}

}  // namespace

DirRemoteStore::DirRemoteStore(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec)
    throw IoError("remote store: cannot create " + root_ + ": " + ec.message());
}

void DirRemoteStore::put(const std::string& epochDir, const std::string& file,
                         const std::string& contents) {
  if (faultFires("remote.slow"))
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (faultFires("remote.put_fail"))
    throw IoError("remote store: injected put failure for " + epochDir + "/" +
                  file);
  std::string_view body = contents;
  if (faultFires("remote.torn_copy")) body = body.substr(0, body.size() / 2);

  const fs::path dir = fs::path(root_) / epochDir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw IoError("remote store: cannot create " + dir.string() + ": " +
                  ec.message());
  // Re-streaming an epoch after a rollback/replay overwrites the object
  // in place, keeping the remote tree a verbatim mirror of the local
  // epoch directory.
  publishAtomic((dir / file).string(), body);
}

std::string DirRemoteStore::get(const std::string& epochDir,
                                const std::string& file) const {
  if (faultFires("remote.get_fail"))
    throw IoError("remote store: injected get failure for " + epochDir + "/" +
                  file);
  return readWholeFile((fs::path(root_) / epochDir / file).string());
}

std::vector<std::string> DirRemoteStore::listEpochs() const {
  std::vector<std::string> out;
  std::error_code ec;
  for (fs::directory_iterator it(root_, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_directory()) continue;
    const std::string name = it->path().filename().string();
    if (name.rfind("epoch_", 0) == 0) out.push_back(name);
  }
  return out;
}

std::optional<RemoteShardStore::Stat> DirRemoteStore::stat(
    const std::string& epochDir, const std::string& file) const {
  std::error_code ec;
  const auto bytes = fs::file_size(fs::path(root_) / epochDir / file, ec);
  if (ec) return std::nullopt;
  return Stat{static_cast<std::uint64_t>(bytes)};
}

std::string encodePlacement(const PlacementMap& map) {
  std::ostringstream out;
  out << "tensorkmc-placement 3\n";
  out << "epoch " << map.epoch << "\n";
  out << "files " << map.rows.size() << "\n";
  for (const PlacementMap::Row& row : map.rows)
    out << row.file << " " << crcHex(row.crc) << " " << row.bytes << " "
        << row.location << "\n";
  std::string body = out.str();
  sealWithCrc(body);
  return body;
}

PlacementMap parsePlacement(const std::string& contents,
                            const std::string& what) {
  const std::string source = "placement map " + what;
  std::istringstream in(unseal(contents, source).body);
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "tensorkmc-placement" || version != 3)
    throw IoError(source + ": bad header '" + magic + " " +
                  std::to_string(version) + "'");
  std::string keyword;
  PlacementMap map;
  std::size_t files = 0;
  in >> keyword >> map.epoch;
  if (keyword != "epoch") throw IoError(source + ": expected 'epoch'");
  in >> keyword >> files;
  if (keyword != "files") throw IoError(source + ": expected 'files'");
  for (std::size_t i = 0; i < files; ++i) {
    PlacementMap::Row row;
    std::string crcField;
    in >> row.file >> crcField >> row.bytes >> row.location;
    if (!in || row.file.empty() ||
        row.file.find('/') != std::string::npos ||
        row.file.find("..") != std::string::npos)
      throw IoError(source + ": bad row " + std::to_string(i));
    row.crc = parseCrcField(crcField, source);
    map.rows.push_back(std::move(row));
  }
  return map;
}

ShardStreamer::ShardStreamer(std::string localDir,
                             std::shared_ptr<RemoteShardStore> remote,
                             Config config)
    : localDir_(std::move(localDir)),
      remote_(std::move(remote)),
      config_(config) {
  worker_ = std::thread([this] { threadMain(); });
}

ShardStreamer::~ShardStreamer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

void ShardStreamer::enqueue(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(epoch);
  }
  cv_.notify_all();
}

int ShardStreamer::lagEpochs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(queue_.size()) + (inFlight_ ? 1 : 0);
}

int ShardStreamer::waitForLag(int maxLag, double timeoutMs) const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::duration<double, std::milli>(timeoutMs),
               [&] {
                 return stop_ || static_cast<int>(queue_.size()) +
                                         (inFlight_ ? 1 : 0) <=
                                     maxLag;
               });
  return static_cast<int>(queue_.size()) + (inFlight_ ? 1 : 0);
}

bool ShardStreamer::drain(double timeoutMs) const {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock,
                      std::chrono::duration<double, std::milli>(timeoutMs),
                      [&] { return queue_.empty() && !inFlight_; });
}

std::uint64_t ShardStreamer::epochsStreamed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streamed_;
}

std::uint64_t ShardStreamer::retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retries_;
}

std::uint64_t ShardStreamer::gaveUp() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gaveUp_;
}

void ShardStreamer::threadMain() {
  for (;;) {
    std::uint64_t epoch = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      epoch = queue_.front();
      queue_.pop_front();
      inFlight_ = true;
    }
    const bool ok = streamEpoch(epoch);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inFlight_ = false;
      if (ok)
        ++streamed_;
      else
        ++gaveUp_;
    }
    cv_.notify_all();
    if (telemetry::enabled())
      telemetry::metrics().gauge("checkpoint.remote_lag_epochs").set(
          static_cast<double>(lagEpochs()));
  }
}

bool ShardStreamer::streamEpoch(std::uint64_t epoch) {
  const std::string epochDir = "epoch_" + std::to_string(epoch);
  const fs::path local = fs::path(localDir_) / epochDir;

  // Snapshot the local epoch's files (shards first, manifest next; the
  // placement map goes last as the remote commit marker). An epoch GC'd
  // before we got to it (superseded deltas) just streams nothing.
  std::vector<std::string> shards;
  bool haveManifest = false;
  std::error_code ec;
  for (fs::directory_iterator it(local, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string name = it->path().filename().string();
    if (name == "manifest.tkm")
      haveManifest = true;
    else if (name.rfind("rank_", 0) == 0)
      shards.push_back(name);
  }
  if (ec || !haveManifest) return true;  // nothing committed here any more
  std::sort(shards.begin(), shards.end());

  std::vector<std::string> order = std::move(shards);
  order.push_back("manifest.tkm");

  PlacementMap map;
  map.epoch = epoch;
  // Salt the jitter stream per streamed epoch so retry delays do not
  // repeat in lockstep across epochs, while staying deterministic for a
  // given (seed, stream order).
  const std::uint64_t salt = ++jitterEpochSalt_;

  // Bounded-retry put: capped exponential backoff with jitter between
  // attempts; false once the attempt budget is gone (epoch abandoned —
  // the local store is untouched either way).
  const auto putWithRetry = [&](const std::string& file,
                                const std::string& contents,
                                std::uint64_t scheduleSalt) {
    RetrySchedule schedule(config_.retry, config_.jitterSeed ^ scheduleSalt);
    for (;;) {
      try {
        remote_->put(epochDir, file, contents);
        return true;
      } catch (const IoError&) {
        const double delayMs = schedule.recordFailure();
        if (schedule.exhausted()) {
          countRemote("remote.gave_up");
          return false;
        }
        countRemote("remote.retries");
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++retries_;
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delayMs));
      }
    }
  };

  for (std::size_t i = 0; i < order.size(); ++i) {
    std::string contents;
    try {
      contents = readWholeFile((local / order[i]).string());
    } catch (const IoError&) {
      return true;  // epoch vanished mid-copy (GC); drop it quietly
    }
    if (!putWithRetry(order[i], contents, salt * 1000003ULL + i)) return false;
    map.rows.push_back({order[i],
                        crc32(contents.data(), contents.size()),
                        static_cast<std::uint64_t>(contents.size()),
                        remote_->describe() + "/" + epochDir});
    if (config_.rateMbps > 0.0) {
      const double seconds =
          static_cast<double>(contents.size()) / (config_.rateMbps * 1.0e6);
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
    countRemote("remote.bytes_streamed", contents.size());
  }

  if (!putWithRetry(kPlacementFile, encodePlacement(map),
                    salt * 1000003ULL + 999))
    return false;
  countRemote("remote.epochs_streamed");
  return true;
}

}  // namespace tkmc
