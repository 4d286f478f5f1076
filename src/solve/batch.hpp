// Throughput-oriented batch execution on top of the solver pipeline.
//
// `BatchEngine` fans a vector of `SolveRequest`s out across a reusable
// thread pool (common/round_pool.hpp) and aggregates latency/throughput
// statistics. Determinism discipline (DESIGN.md §3):
//   * request i runs with the seed DeriveSeed(master_seed, i) when a master
//     seed is set — one knob reseeds a whole batch reproducibly,
//   * when the batch fans out (threads > 1), each request runs with
//     SolveOptions::threads = 1, so a portfolio races its roster inline:
//     the batch level owns the cores, and nested pools would oversubscribe,
//   * results are written into a pre-sized slot per request — no cross-task
//     synchronization — so a batch is bit-identical across thread counts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/round_pool.hpp"
#include "solve/solver.hpp"

namespace dsf {

struct BatchOptions {
  // Total executors (workers + the calling thread); 1 runs inline, 0 picks
  // the hardware concurrency (capped at 16).
  int threads = 1;
  // When != 0, request i is solved with seed DeriveSeed(master_seed, i)
  // instead of its own seed.
  std::uint64_t master_seed = 0;
};

// Aggregates over one Run(); latencies are per-request solver wall times.
struct BatchStats {
  int requests = 0;
  int infeasible = 0;        // validated requests whose output was infeasible
  double wall_ms = 0.0;      // whole-batch wall time
  double instances_per_sec = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double max_ms = 0.0;
  Weight total_weight = 0;
  long total_rounds = 0;
  long total_messages = 0;
};

// Nearest-rank percentile (p in [0, 1]) over an ascending-sorted sample
// set. Shared by the batch stats, the service layer's /stats latency
// digest, and the load-generator bench, so the three report one
// definition.
[[nodiscard]] double PercentileOfSorted(std::span<const double> sorted,
                                        double p);

class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions options = {});
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  // Solves every request (order-preserving) and refreshes LastStats().
  // Exceptions from the pipeline (unknown solver, disconnected topology)
  // propagate after all in-flight requests drain.
  std::vector<SolveResult> Run(std::span<const SolveRequest> requests);

  [[nodiscard]] const BatchStats& LastStats() const noexcept { return stats_; }
  [[nodiscard]] int Threads() const noexcept { return threads_; }

 private:
  int threads_ = 1;
  std::uint64_t master_seed_ = 0;
  std::unique_ptr<detail::RoundPool> pool_;  // nullptr => inline execution
  BatchStats stats_;
};

}  // namespace dsf
