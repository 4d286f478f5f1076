// Ablations for the design choices DESIGN.md calls out.
//
// A1 — LE-list pruning at the √n rank threshold (the mechanism behind the
//      min{s,√n} term of Theorem 5.2): truncated vs. full virtual tree on
//      high-s graphs. Expectation: rounds drop substantially with pruning,
//      at equal feasibility.
// A2 — repetition amplification lives in scenarios/paper/approx.dsf-suite
//      (dist-rand(reps=1|2|4|8) cells; bench/SUITE_approx.json).
// A3 — the moat algorithm's µ̂ rounding (Algorithm 2) as a rounds/quality
//      knob, measured against the distributed Borůvka MST on the t = n
//      special case (three independent protocols, one answer).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "dist/det_moat.hpp"
#include "dist/mst_boruvka.hpp"
#include "dist/randomized.hpp"
#include "steiner/mst.hpp"

namespace dsf {
namespace {

void BM_LePruningAblation(benchmark::State& state) {
  const int pieces = static_cast<int>(state.range(0));
  SplitMix64 rng(99);
  const Graph base = MakeConnectedRandom(16, 0.2, 1, 6, rng);
  const Graph g = SubdivideEdges(base, pieces);
  SplitMix64 trng(5);
  const IcInstance small = bench::SpreadComponents(16, 2, trng);
  IcInstance ic;
  ic.labels.assign(static_cast<std::size_t>(g.NumNodes()), kNoLabel);
  std::copy(small.labels.begin(), small.labels.end(), ic.labels.begin());
  for (auto _ : state) {
    RandomizedOptions truncated;
    truncated.force_truncated = true;
    RandomizedOptions full;
    full.force_full = true;
    const auto with = RunRandomizedSteinerForest(g, ic, truncated, 1);
    const auto without = RunRandomizedSteinerForest(g, ic, full, 1);
    state.counters["rounds_pruned"] = static_cast<double>(with.stats.rounds);
    state.counters["rounds_full"] = static_cast<double>(without.stats.rounds);
    state.counters["speedup"] = static_cast<double>(without.stats.rounds) /
                                static_cast<double>(with.stats.rounds);
    state.counters["weight_pruned"] =
        static_cast<double>(g.WeightOf(with.forest));
    state.counters["weight_full"] =
        static_cast<double>(g.WeightOf(without.forest));
    // The pruning acts on the embedding-construction stage; total rounds on
    // high-D graphs are dominated by the per-phase coordination, so the
    // embedding-only rounds are the discriminating series.
    state.counters["le_rounds_pruned"] = static_cast<double>(with.le_rounds);
    state.counters["le_rounds_full"] = static_cast<double>(without.le_rounds);
  }
  bench::ReportGraphParams(state, g);
}
BENCHMARK(BM_LePruningAblation)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_MstThreeProtocols(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  SplitMix64 rng(static_cast<std::uint64_t>(n) * 5 + 1);
  const Graph g = MakeConnectedRandom(n, 8.0 / n, 1, 60, rng);
  std::vector<std::pair<NodeId, Label>> assign;
  for (NodeId v = 0; v < n; ++v) assign.push_back({v, 1});
  const IcInstance ic = MakeIcInstance(n, assign);
  for (auto _ : state) {
    const auto moat = RunDistributedMoat(g, ic, {}, 1);
    const auto boruvka = RunDistributedMst(g, 1);
    const Weight kruskal = MstWeight(g);
    state.counters["moat_rounds"] = static_cast<double>(moat.stats.rounds);
    state.counters["boruvka_rounds"] =
        static_cast<double>(boruvka.stats.rounds);
    state.counters["moat_over_kruskal"] =
        static_cast<double>(g.WeightOf(moat.forest)) /
        static_cast<double>(kruskal);
    state.counters["boruvka_over_kruskal"] =
        static_cast<double>(g.WeightOf(boruvka.tree)) /
        static_cast<double>(kruskal);
    state.counters["boruvka_phases"] = boruvka.phases;
  }
  bench::ReportGraphParams(state, g);
}
BENCHMARK(BM_MstThreeProtocols)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsf

BENCHMARK_MAIN();
