// Quickstart: build a small weighted network, declare two groups of terminals
// (input components), and solve Distributed Steiner Forest through the
// unified solver registry — the deterministic (2+ε)-approximation of
// Section 4, the randomized O(log n)-approximation of Section 5, and the
// exact reference, all through one `Solve` call each.
//
//   ./examples/quickstart
#include <cstdio>

#include "graph/generators.hpp"
#include "solve/solver.hpp"

int main() {
  using namespace dsf;

  // A 4x4 toy network with mixed edge weights:
  //
  //   0 - 1 - 2 - 3
  //   |   |   |   |
  //   4 - 5 - 6 - 7
  //   |   |   |   |
  //   8 - 9 -10 -11
  //   |   |   |   |
  //  12 -13 -14 -15
  SplitMix64 rng(7);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);

  // Two input components: {0, 15} must be connected, and so must {3, 12}.
  const IcInstance instance = MakeIcInstance(16, {{0, 1}, {15, 1}, {3, 2}, {12, 2}});

  std::printf("network: %s\n", g.Summary().c_str());
  std::printf("components: k=%d, terminals: t=%d\n\n",
              instance.NumComponents(), instance.NumTerminals());

  // One pipeline per algorithm family; the registry knows them all by name.
  // A solver's parameters ride in its spec: dist-rand(reps=3) keeps the
  // lightest of three independent runs (the paper's amplification).
  SolveOptions opt;
  opt.compute_reference = true;
  SolveResult det;
  for (const char* name : {"dist-det", "dist-rand(reps=3)", "exact"}) {
    const SolveResult res = Solve(name, g, instance, opt, /*seed=*/1);
    std::printf("%-9s: weight=%lld  rounds=%ld  ratio=%.3f  feasible=%s\n",
                name, static_cast<long long>(res.weight), res.stats.rounds,
                res.approx_ratio, res.feasible ? "yes" : "no");
    if (res.solver == "dist-det") det = res;
  }

  std::printf("\nselected edges (dist-det):");
  for (const EdgeId e : det.forest) {
    const auto& edge = g.GetEdge(e);
    std::printf("  %d-%d(w%lld)", edge.u, edge.v, static_cast<long long>(edge.w));
  }
  std::printf("\n");
  return 0;
}
