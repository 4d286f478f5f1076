// Lemmas 2.3 / 2.4 — the distributed input transformations run in
// O(t + D) resp. O(k + D) rounds. Measured: rounds as t (resp. k) grows on
// a fixed-diameter graph; `rounds_per_t` / `rounds_per_k` flattening out is
// the linear-in-parameter shape the lemmas claim.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "dist/transform.hpp"

namespace dsf {
namespace {

void BM_CrToIcVsT(benchmark::State& state) {
  const int pairs_count = static_cast<int>(state.range(0));
  const int n = 80;
  SplitMix64 rng(1234);
  const Graph g = MakeConnectedRandom(n, 0.06, 1, 9, rng);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  SplitMix64 prng(static_cast<std::uint64_t>(pairs_count));
  for (int i = 0; i < pairs_count; ++i) {
    const auto u = static_cast<NodeId>(prng.NextBelow(n));
    const auto v = static_cast<NodeId>(prng.NextBelow(n));
    if (u != v) pairs.push_back({u, v});
  }
  const CrInstance cr = MakeCrInstance(n, pairs);
  for (auto _ : state) {
    const auto res = RunDistributedCrToIc(g, cr, 1);
    state.counters["rounds"] = static_cast<double>(res.stats.rounds);
    state.counters["t"] = cr.NumTerminals();
    state.counters["rounds_per_t"] =
        static_cast<double>(res.stats.rounds) /
        std::max(1, cr.NumTerminals());
  }
  bench::ReportGraphParams(state, g);
}
BENCHMARK(BM_CrToIcVsT)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_MakeMinimalVsK(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int n = 80;
  SplitMix64 rng(777);
  const Graph g = MakeConnectedRandom(n, 0.06, 1, 9, rng);
  SplitMix64 trng(static_cast<std::uint64_t>(k) * 5);
  // Half of the components are singletons (to be dropped).
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  const auto fresh = [&]() {
    NodeId v;
    do {
      v = static_cast<NodeId>(trng.NextBelow(n));
    } while (used[static_cast<std::size_t>(v)]);
    used[static_cast<std::size_t>(v)] = 1;
    return v;
  };
  for (int c = 0; c < k; ++c) {
    assign.push_back({fresh(), static_cast<Label>(c + 1)});
    if (c % 2 == 0) assign.push_back({fresh(), static_cast<Label>(c + 1)});
  }
  const IcInstance ic = MakeIcInstance(n, assign);
  for (auto _ : state) {
    const auto res = RunDistributedMakeMinimal(g, ic, 1);
    state.counters["rounds"] = static_cast<double>(res.stats.rounds);
    state.counters["k"] = k;
    state.counters["rounds_per_k"] =
        static_cast<double>(res.stats.rounds) / k;
    state.counters["kept_components"] = res.instance.NumComponents();
  }
  bench::ReportGraphParams(state, g);
}
BENCHMARK(BM_MakeMinimalVsK)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dsf

BENCHMARK_MAIN();
