#include "solve/batch.hpp"

#include <algorithm>
#include <chrono>

#include "common/random.hpp"

namespace dsf {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  return std::min(HardwareThreads(), 16);
}

}  // namespace

double PercentileOfSorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

BatchEngine::BatchEngine(BatchOptions options)
    : threads_(ResolveThreads(options.threads)),
      master_seed_(options.master_seed) {
  if (threads_ > 1) pool_ = std::make_unique<detail::RoundPool>(threads_);
}

BatchEngine::~BatchEngine() = default;

std::vector<SolveResult> BatchEngine::Run(
    std::span<const SolveRequest> requests) {
  const int n = static_cast<int>(requests.size());
  std::vector<SolveResult> results(requests.size());

  const auto task = [&](int i) {
    // The overload leaves the caller's request untouched (reusable across
    // engines/thread counts) without copying its instance data.
    const SolveRequest& req = requests[static_cast<std::size_t>(i)];
    const std::uint64_t seed =
        master_seed_ != 0 ? DeriveSeed(master_seed_, static_cast<std::uint64_t>(i))
                          : req.seed;
    // When the batch fans out, it owns the cores: a nested portfolio pool
    // would oversubscribe. An inline batch leaves the request's racing
    // width alone.
    const int threads = pool_ ? 1 : req.options.threads;
    results[static_cast<std::size_t>(i)] = Solve(req, seed, threads);
  };

  const auto start = std::chrono::steady_clock::now();
  if (pool_) {
    pool_->ParallelFor(n, task);
  } else {
    for (int i = 0; i < n; ++i) task(i);
  }
  const auto stop = std::chrono::steady_clock::now();

  stats_ = BatchStats{};
  stats_.requests = n;
  stats_.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  if (n > 0 && stats_.wall_ms > 0.0) {
    stats_.instances_per_sec = 1000.0 * static_cast<double>(n) / stats_.wall_ms;
  }
  std::vector<double> latencies;
  latencies.reserve(results.size());
  for (const SolveResult& r : results) {
    latencies.push_back(r.wall_ms);
    stats_.total_weight += r.weight;
    stats_.total_rounds += r.stats.rounds;
    stats_.total_messages += r.stats.messages;
    if (r.validated && !r.feasible) ++stats_.infeasible;
  }
  std::sort(latencies.begin(), latencies.end());
  stats_.p50_ms = PercentileOfSorted(latencies, 0.50);
  stats_.p95_ms = PercentileOfSorted(latencies, 0.95);
  stats_.max_ms = latencies.empty() ? 0.0 : latencies.back();
  return results;
}

}  // namespace dsf
