#include "parallel/rank_team.hpp"

#include <utility>

#include "common/error.hpp"

namespace tkmc {

RankTeam::RankTeam(int ranks, bool threaded) : ranks_(ranks) {
  require(ranks > 0, "rank team needs at least one rank");
  if (!threaded) return;
  errors_.resize(static_cast<std::size_t>(ranks));
  threads_.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r)
    threads_.emplace_back([this, r] { workerLoop(r); });
}

RankTeam::~RankTeam() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void RankTeam::workerLoop(int rank) {
  std::uint64_t seen = 0;
  while (true) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      (*job)(rank);
    } catch (...) {
      error = std::current_exception();
    }
    {
      // Move, not copy: the worker must drop its reference under the
      // lock, so the exception is released on the thread that rethrows
      // it rather than raced against by a late worker-side release.
      std::lock_guard<std::mutex> lock(mutex_);
      errors_[static_cast<std::size_t>(rank)] = std::move(error);
      --remaining_;
    }
    done_.notify_one();
  }
}

void RankTeam::run(const std::function<void(int)>& job) {
  if (!threaded()) {
    for (int r = 0; r < ranks_; ++r) job(r);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &job;
    remaining_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  wake_.notify_all();
  std::exception_ptr first;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return remaining_ == 0; });
    job_ = nullptr;
    // Lowest failing rank wins: deterministic regardless of which
    // thread finished (or failed) first.
    for (std::exception_ptr& e : errors_) {
      if (e && !first) first = e;
      e = nullptr;
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace tkmc
