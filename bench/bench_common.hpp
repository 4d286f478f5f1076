// Shared helpers for the benchmark binaries. They cover the DESIGN.md §6
// rows that are not solver runs of `dsf suite` (the paper manifests in
// scenarios/paper/ hold E1–E5, E7, E10, E11 and A2): embedding stretch,
// cut bits, pruning, the input transforms, and the A1/A3 ablations.
// Results are exposed as benchmark counters (rounds, ratios, phases,
// bits) — the quantities the paper's theorems bound.
#pragma once

#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "common/random.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "steiner/instance.hpp"

namespace dsf::bench {

// Spreads 2 terminals per component across the node range, deterministically
// but "randomly" w.r.t. the seed, avoiding collisions.
inline IcInstance SpreadComponents(int n, int k, SplitMix64& rng,
                                   int terminals_per_component = 2) {
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < terminals_per_component; ++j) {
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

inline void ReportGraphParams(benchmark::State& state, const Graph& g) {
  const auto& p = CachedParameters(g);
  state.counters["n"] = g.NumNodes();
  state.counters["m"] = g.NumEdges();
  state.counters["D"] = p.unweighted_diameter;
  state.counters["s"] = p.shortest_path_diameter;
}

}  // namespace dsf::bench
