// Railroad design — the problem's historical framing ("it was famously posed
// as a problem of railroad design"). Cities lie on a plane; track segments
// can be laid along a candidate geometric network; several rail operators
// each need their own set of cities connected, and operators may share
// track (that is precisely Steiner Forest: shared edges are paid once).
//
// Compares four plans, all through the solver registry:
//   * per-operator shortest-path trees (naive, no sharing awareness),
//   * the MST-prune baseline (`mst-prune`),
//   * the deterministic moat-growing plan (`dist-det`, Theorem 4.17),
//   * the randomized plan (`dist-rand`, Theorem 5.2),
// and reports how much track each lays.
//
//   ./examples/railroad_design [cities=50]
#include <cstdio>
#include <cstdlib>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "solve/solver.hpp"
#include "steiner/validate.hpp"

int main(int argc, char** argv) {
  using namespace dsf;
  const int n = argc > 1 ? std::atoi(argv[1]) : 50;

  SplitMix64 rng(1868);  // golden spike vintage
  const Graph terrain = MakeRandomGeometric(n, 0.3, 1000, rng);
  std::printf("candidate network: %s\n", terrain.Summary().c_str());

  // Three operators, each with three cities to connect.
  std::vector<std::pair<NodeId, Label>> demands;
  SplitMix64 crng(41);
  for (int op = 0; op < 3; ++op) {
    for (int c = 0; c < 3; ++c) {
      demands.push_back({static_cast<NodeId>(crng.NextBelow(n)),
                         static_cast<Label>(op + 1)});
    }
  }
  const IcInstance instance = MakeIcInstance(n, demands);

  // Naive plan: each operator connects its cities by shortest paths to the
  // first city (no coordination, no Steiner nodes).
  std::vector<EdgeId> naive;
  {
    std::vector<char> in(static_cast<std::size_t>(terrain.NumEdges()), 0);
    for (const Label op : instance.DistinctLabels()) {
      std::vector<NodeId> cities;
      for (NodeId v = 0; v < n; ++v) {
        if (instance.LabelOf(v) == op) cities.push_back(v);
      }
      const auto tree = Dijkstra(terrain, cities.front());
      for (std::size_t i = 1; i < cities.size(); ++i) {
        for (const EdgeId e : tree.PathTo(cities[i])) {
          if (!in[static_cast<std::size_t>(e)]) {
            in[static_cast<std::size_t>(e)] = 1;
            naive.push_back(e);
          }
        }
      }
    }
  }

  std::printf("\n%-34s %12s %10s\n", "plan", "track cost", "rounds");
  std::printf("%-34s %12lld %10s\n", "naive shortest-path trees",
              static_cast<long long>(terrain.WeightOf(naive)), "-");

  bool ok = IsFeasible(terrain, instance, naive);
  const struct { const char* solver; const char* caption; } plans[] = {
      {"mst-prune", "pruned MST baseline"},
      {"dist-det", "moat growing (det, factor 2)"},
      {"dist-rand(reps=3)", "tree embedding (rand, O(log n))"},
  };
  for (const auto& plan : plans) {
    const SolveResult res = Solve(plan.solver, terrain, instance, {}, 7);
    if (SolverRegistry::Get(ParseSolverSpec(plan.solver).base)
            .Distributed()) {
      std::printf("%-34s %12lld %10ld\n", plan.caption,
                  static_cast<long long>(res.weight), res.stats.rounds);
    } else {
      std::printf("%-34s %12lld %10s\n", plan.caption,
                  static_cast<long long>(res.weight), "-");
    }
    ok = ok && res.feasible;
  }

  std::printf("\nall operators' cities connected in every plan: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
