// Simulator-throughput benchmark (the tentpole metric of the hot-loop
// rearchitecture): rounds/sec and messages/sec of Network::Step() itself,
// across sparse and dense topologies. Two workload classes:
//
//   * Flood — every node sends on every edge every round: zero idle nodes,
//     so this isolates the per-message path (mirror delivery, dirty-list
//     accounting, inline message fields, buffer reuse).
//   * DetMoat / Rand — the paper's protocols on the shape of the paper
//     manifest's n = 256 cell (scenarios/paper/e4_rounds_vs_k_n.dsf, sparse
//     ER at p = 6/n, k = 4): the end-to-end wall clock the simulator's ≥3x
//     speedup target is stated over, where the active set additionally
//     skips quiescent nodes.
//
// GraphParameters times the exact (D, WD, s) sweep that hands every node
// its static knowledge (footnote 2) on the first distributed run on a graph.
//
// Pre-refactor reference numbers (same machine, RelWithDebInfo — the
// default build type — the seed simulator at commit 89e4cf6) are recorded
// in README.md "Performance".
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "congest/network.hpp"
#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "steiner/instance.hpp"
#include "workload/generators.hpp"

namespace dsf {
namespace {

// k components of 2 terminals each, spread over the node range without
// collisions, deterministically in the seed.
IcInstance SpreadComponents(int n, int k, SplitMix64& rng) {
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < 2; ++j) {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n)));
      } while (used[static_cast<std::size_t>(v)]);
      used[static_cast<std::size_t>(v)] = 1;
      assign.push_back({v, static_cast<Label>(c + 1)});
    }
  }
  return MakeIcInstance(n, assign);
}

void ReportGraphParams(benchmark::State& state, const Graph& g) {
  const auto& p = CachedParameters(g);
  state.counters["n"] = g.NumNodes();
  state.counters["m"] = g.NumEdges();
  state.counters["D"] = p.unweighted_diameter;
  state.counters["s"] = p.shortest_path_diameter;
}

// Every node sends a 3-field message on every incident edge every round for
// a fixed horizon; no node is ever idle.
class FloodProgram : public NodeProgram {
 public:
  FloodProgram(NodeId id, long horizon) : id_(id), horizon_(horizon) {}

  void OnRound(NodeApi& api) override {
    if (api.Round() >= horizon_) {
      done_ = true;
      return;
    }
    for (int i = 0; i < api.Degree(); ++i) {
      api.Send(i, Message{kChApp, {id_, api.Round(), i}});
    }
  }
  [[nodiscard]] bool Done() const override { return done_; }

 private:
  NodeId id_;
  long horizon_;
  bool done_ = false;
};

// Percentile over a sample of per-round wall-clock times (microseconds).
double RoundPercentile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

// Steps the network manually so every round's wall clock is sampled: the
// JSON output carries msgs_per_sec plus p50/p95 round-time percentiles,
// making before/after delivery-path claims machine-diffable.
void RunFlood(benchmark::State& state, const Graph& g, long horizon) {
  long rounds = 0;
  long messages = 0;
  std::vector<double> round_us;
  round_us.reserve(1024);
  for (auto _ : state) {
    StaticKnowledge known;
    known.n = g.NumNodes();
    known.diameter_bound = g.NumNodes();
    Network net(g, known, /*seed=*/1);
    net.Start([&](NodeId v) {
      return std::make_unique<FloodProgram>(v, horizon);
    });
    bool more = true;
    while (more && net.Round() < horizon + 4) {
      const auto t0 = std::chrono::steady_clock::now();
      more = net.Step();
      const auto t1 = std::chrono::steady_clock::now();
      round_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    const auto& stats = net.Stats();
    rounds = stats.rounds;
    messages = stats.messages;
  }
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["msgs_per_sec"] = benchmark::Counter(
      static_cast<double>(messages * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["round_p50_us"] = RoundPercentile(round_us, 0.50);
  state.counters["round_p95_us"] = RoundPercentile(round_us, 0.95);
  state.counters["n"] = g.NumNodes();
  state.counters["m"] = g.NumEdges();
}

void BM_FloodSparse(benchmark::State& state) {
  SplitMix64 rng(41);
  const Graph g = MakeConnectedRandom(512, 6.0 / 512, 1, 32, rng);
  RunFlood(state, g, /*horizon=*/200);
}
BENCHMARK(BM_FloodSparse)->Unit(benchmark::kMillisecond);

// The headline configuration of the arena rearchitecture: a
// n = 4096 sparse flood whose per-round traffic (~2 * m messages) is far
// larger than any cache level, so msgs_per_sec here measures the delivery
// path's memory behavior, not compute. The ≥1.5x acceptance criterion is
// stated over this row versus bench/BASELINE_simulator_n4096.json.
void BM_FloodSparse4096(benchmark::State& state) {
  SplitMix64 rng(47);
  const Graph g = MakeConnectedRandom(4096, 6.0 / 4096, 1, 32, rng);
  RunFlood(state, g, /*horizon=*/30);
}
BENCHMARK(BM_FloodSparse4096)->Unit(benchmark::kMillisecond);

void BM_FloodDense(benchmark::State& state) {
  SplitMix64 rng(43);
  const Graph g = MakeConnectedRandom(192, 0.4, 1, 32, rng);
  RunFlood(state, g, /*horizon=*/200);
}
BENCHMARK(BM_FloodDense)->Unit(benchmark::kMillisecond);

// The shape of the paper manifest's n = 256 cell (E4's largest n-sweep row):
// end-to-end protocol wall clock. Static knowledge is warmed outside the
// timed region — it is a granted input (footnote 2), not simulator work.
void BM_DetMoatLargestN(benchmark::State& state) {
  const int n = 256;
  SplitMix64 rng(static_cast<std::uint64_t>(n) * 31 + 7);
  const Graph g = MakeConnectedRandom(n, 6.0 / n, 1, 32, rng);
  const IcInstance ic = SpreadComponents(n, 4, rng);
  (void)CachedParameters(g);
  long rounds = 0;
  for (auto _ : state) {
    const auto res = RunDistributedMoat(g, ic, {}, 1);
    rounds = res.stats.rounds;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds * state.iterations()),
      benchmark::Counter::kIsRate);
  ReportGraphParams(state, g);
}
BENCHMARK(BM_DetMoatLargestN)->Unit(benchmark::kMillisecond);

void BM_RandLargestN(benchmark::State& state) {
  const int n = 256;
  SplitMix64 rng(static_cast<std::uint64_t>(n) * 31 + 7);
  const Graph g = MakeConnectedRandom(n, 6.0 / n, 1, 32, rng);
  const IcInstance ic = SpreadComponents(n, 4, rng);
  (void)CachedParameters(g);
  long rounds = 0;
  for (auto _ : state) {
    const auto res = RunRandomizedSteinerForest(g, ic, {}, 1);
    rounds = res.stats.rounds;
  }
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(rounds * state.iterations()),
      benchmark::Counter::kIsRate);
  ReportGraphParams(state, g);
}
BENCHMARK(BM_RandLargestN)->Unit(benchmark::kMillisecond);

// The nine graph shapes of perfbench's congest-paper ladder, one fixed seed
// each: the uncached ComputeParameters sweep, which the first dist-det or
// dist-rand run on a graph pays through CachedParameters. The sweep fans out
// over threads, so iterations are timed by wall clock.
using ParamList = std::vector<std::pair<std::string, std::string>>;
void BM_GraphParameters(benchmark::State& state, const char* family,
                        const ParamList& params) {
  const Graph g = BuildGenerator(family, params, /*seed=*/101);
  GraphParameters p;
  for (auto _ : state) {
    p = ComputeParameters(g);
    benchmark::DoNotOptimize(p);
  }
  state.counters["n"] = g.NumNodes();
  state.counters["m"] = g.NumEdges();
  state.counters["D"] = p.unweighted_diameter;
  state.counters["s"] = p.shortest_path_diameter;
}
BENCHMARK_CAPTURE(BM_GraphParameters, grid20, "grid",
                  ParamList{{"rows", "20"}, {"cols", "20"}, {"max_w", "8"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GraphParameters, grid28, "grid",
                  ParamList{{"rows", "28"}, {"cols", "28"}, {"max_w", "8"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GraphParameters, grid36, "grid",
                  ParamList{{"rows", "36"}, {"cols", "36"}, {"max_w", "8"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GraphParameters, subdivided_er48, "subdivided-er",
                  ParamList{{"n", "48"}, {"p", "0.1"}, {"pieces", "6"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GraphParameters, subdivided_er64, "subdivided-er",
                  ParamList{{"n", "64"}, {"p", "0.08"}, {"pieces", "6"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GraphParameters, er500, "er",
                  ParamList{{"n", "500"}, {"p", "0.012"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GraphParameters, er1000, "er",
                  ParamList{{"n", "1000"}, {"p", "0.006"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GraphParameters, power_law600, "power-law",
                  ParamList{{"n", "600"}, {"m", "2"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_GraphParameters, power_law1500, "power-law",
                  ParamList{{"n", "1500"}, {"m", "2"}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace dsf

BENCHMARK_MAIN();
