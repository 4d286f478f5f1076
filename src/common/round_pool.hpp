// Minimal reusable thread pool behind every fan-out in the library: the
// BatchEngine spreads requests across it, the portfolio races its roster on
// it, and the graph-parameter sweep (graph/properties.cpp) splits its
// sources over it. Executors (the calling thread plus threads - 1 workers)
// pull contiguous index chunks off a shared cursor; results must not depend
// on which executor ran an index.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dsf {

// The machine's hardware thread count, at least 1 (the standard allows
// std::thread::hardware_concurrency() to report 0 when it cannot tell). The
// one place the library reads it.
[[nodiscard]] int HardwareThreads() noexcept;

namespace detail {

class RoundPool {
 public:
  explicit RoundPool(int threads);
  ~RoundPool();

  RoundPool(const RoundPool&) = delete;
  RoundPool& operator=(const RoundPool&) = delete;

  // Runs task(i) for i in [0, n); blocks until every index completed.
  // Rethrows the first exception thrown by any task.
  void ParallelFor(int n, const std::function<void(int)>& task);

 private:
  void WorkerLoop();
  void RunChunks();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* task_ = nullptr;
  int executors_ = 1;  // workers + the calling thread
  int total_ = 0;
  int chunk_ = 1;    // per-claim range size for the current ParallelFor
  int next_ = 0;     // next unclaimed index (under mu_)
  int pending_ = 0;  // indices not yet completed (under mu_)
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

}  // namespace detail
}  // namespace dsf
