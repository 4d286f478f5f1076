#include "common/round_pool.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dsf {

int HardwareThreads() noexcept {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

namespace detail {

RoundPool::RoundPool(int threads) : executors_(threads) {
  // The calling thread participates in ParallelFor, so `threads` total
  // executors means threads - 1 workers.
  DSF_CHECK(threads >= 2);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

RoundPool::~RoundPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void RoundPool::WorkerLoop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
    }
    RunChunks();
  }
}

void RoundPool::RunChunks() {
  for (;;) {
    int lo = 0;
    int hi = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (next_ >= total_) return;
      lo = next_;
      hi = std::min(total_, lo + chunk_);
      next_ = hi;
    }
    for (int i = lo; i < hi; ++i) {
      try {
        (*task_)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_ -= hi - lo;
      all_done = pending_ == 0 && next_ >= total_;
    }
    if (all_done) done_cv_.notify_all();
  }
}

void RoundPool::ParallelFor(int n, const std::function<void(int)>& task) {
  if (n <= 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    total_ = n;
    // ~4 claims per executor balances cursor contention against tail
    // imbalance; small n still splits so every executor can participate.
    chunk_ = std::max(1, n / (executors_ * 4));
    next_ = 0;
    pending_ = n;
    first_error_ = nullptr;
    ++epoch_;
  }
  start_cv_.notify_all();
  RunChunks();  // the calling thread participates
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    task_ = nullptr;
    if (first_error_) {
      auto err = first_error_;
      first_error_ = nullptr;
      std::rethrow_exception(err);
    }
  }
}

}  // namespace detail
}  // namespace dsf
