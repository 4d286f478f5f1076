#include "graph/properties.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/shortest_paths.hpp"
#include "workload/generators.hpp"

namespace dsf {
namespace {

// Brute-force reference: one BFS and one lexicographic (dist, hops)
// Dijkstra per source, as the general shortest-path routines compute them.
GraphParameters OracleParameters(const Graph& g) {
  GraphParameters p;
  p.connected = g.NumNodes() == 0 || ConnectedComponents(g).count == 1;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    const auto bfs = Bfs(g, v);
    const auto sp = Dijkstra(g, v);
    for (NodeId u = 0; u < g.NumNodes(); ++u) {
      const auto ui = static_cast<std::size_t>(u);
      p.unweighted_diameter = std::max(p.unweighted_diameter, bfs.depth[ui]);
      if (sp.Reachable(u)) {
        p.weighted_diameter = std::max(p.weighted_diameter, sp.dist[ui]);
        p.shortest_path_diameter =
            std::max(p.shortest_path_diameter, sp.hops[ui]);
      }
    }
  }
  return p;
}

void ExpectSameParameters(const GraphParameters& got,
                          const GraphParameters& want,
                          const std::string& what) {
  EXPECT_EQ(got.unweighted_diameter, want.unweighted_diameter) << what;
  EXPECT_EQ(got.weighted_diameter, want.weighted_diameter) << what;
  EXPECT_EQ(got.shortest_path_diameter, want.shortest_path_diameter) << what;
  EXPECT_EQ(got.connected, want.connected) << what;
}

void ExpectMatchesOracle(const Graph& g, const std::string& what) {
  ExpectSameParameters(ComputeParameters(g), OracleParameters(g), what);
}

// The family's default parameters with every weight knob it has replaced:
// `unit` pins all weights to 1, otherwise weights reach 1,000,000.
std::vector<std::pair<std::string, std::string>> WeightOverrides(
    const GeneratorFamily& family, bool unit) {
  const std::vector<std::pair<std::string, std::string>> heavy = {
      {"w", "1000000"},      {"min_w", "1"},         {"max_w", "1000000"},
      {"chord_w", "777777"}, {"spine_w", "1000000"}, {"leg_w", "3"},
      {"scale", "1000000"}};
  std::vector<std::pair<std::string, std::string>> raw;
  for (const ParamSpec& spec : family.params) {
    for (const auto& [key, value] : heavy) {
      if (spec.name == key) raw.emplace_back(key, unit ? "1" : value);
    }
  }
  return raw;
}

// Nodes of `a`, then nodes of `b`, then `isolated` extra nodes; no edge
// joins the parts.
Graph DisjointUnion(const Graph& a, const Graph& b, int isolated) {
  Graph g(a.NumNodes() + b.NumNodes() + isolated);
  for (const Edge& e : a.Edges()) g.AddEdge(e.u, e.v, e.w);
  for (const Edge& e : b.Edges()) {
    g.AddEdge(e.u + a.NumNodes(), e.v + a.NumNodes(), e.w);
  }
  g.Finalize();
  return g;
}

TEST(PropertiesTest, PathParameters) {
  const Graph g = MakePath(6, 2);
  const auto p = ComputeParameters(g);
  EXPECT_TRUE(p.connected);
  EXPECT_EQ(p.unweighted_diameter, 5);
  EXPECT_EQ(p.shortest_path_diameter, 5);
  EXPECT_EQ(p.weighted_diameter, 10);
}

TEST(PropertiesTest, StarParameters) {
  const Graph g = MakeStar(9, 7);
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.unweighted_diameter, 2);
  EXPECT_EQ(p.shortest_path_diameter, 2);
  EXPECT_EQ(p.weighted_diameter, 14);
}

TEST(PropertiesTest, ShortestPathDiameterExceedsHopDiameter) {
  // Cycle with one heavy chord-avoiding structure: a 6-cycle where one edge is
  // heavy forces weighted shortest paths the long way around.
  Graph g(6);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 3, 1);
  g.AddEdge(3, 4, 1);
  g.AddEdge(4, 5, 1);
  g.AddEdge(5, 0, 100);
  g.Finalize();
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.unweighted_diameter, 3);
  EXPECT_EQ(p.shortest_path_diameter, 5);  // 0..5 along the light path
}

TEST(PropertiesTest, SAlwaysAtLeastD) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(30, 0.1, 1, 40, rng);
    const auto p = ComputeParameters(g);
    EXPECT_GE(p.shortest_path_diameter, p.unweighted_diameter) << seed;
  }
}

TEST(PropertiesTest, UnitWeightsMakeSEqualD) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(25, 0.15, 1, 1, rng);
    const auto p = ComputeParameters(g);
    EXPECT_EQ(p.shortest_path_diameter, p.unweighted_diameter) << seed;
  }
}

TEST(PropertiesTest, DisconnectedDetected) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.Finalize();
  EXPECT_FALSE(IsConnected(g));
  EXPECT_FALSE(ComputeParameters(g).connected);
}

TEST(PropertiesTest, CompleteGraphDiameterOne) {
  SplitMix64 rng(5);
  const Graph g = MakeComplete(8, 1, 1, rng);
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.unweighted_diameter, 1);
  EXPECT_EQ(p.weighted_diameter, 1);
}

TEST(PropertiesTest, SingleNode) {
  Graph g(1);
  g.Finalize();
  const auto p = ComputeParameters(g);
  EXPECT_TRUE(p.connected);
  EXPECT_EQ(p.unweighted_diameter, 0);
  EXPECT_EQ(p.shortest_path_diameter, 0);
}

// Every registered family x 3 seeds, at default, unit and up-to-10^6
// weights: the sweep equals the per-source BFS + Dijkstra oracle field for
// field.
TEST(PropertiesTest, MatchesOracleOnEveryGeneratorFamily) {
  for (const std::string_view name : GeneratorRegistry::Names()) {
    const GeneratorFamily& family = GeneratorRegistry::Get(name);
    for (const std::string weights : {"default", "unit", "heavy"}) {
      std::vector<std::pair<std::string, std::string>> raw;
      if (weights != "default") {
        raw = WeightOverrides(family, weights == "unit");
      }
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Graph g = BuildGenerator(name, raw, seed);
        ExpectMatchesOracle(g, std::string(name) + " " + weights + " seed " +
                                   std::to_string(seed));
      }
    }
  }
}

// Weights around 2^40: the radix heap's buckets span the full key width
// and nothing is scaled or truncated.
TEST(PropertiesTest, MatchesOracleWithWeightsNear2Pow40) {
  constexpr Weight kBig = Weight{1} << 40;
  Graph g(7);
  g.AddEdge(0, 1, kBig);
  g.AddEdge(1, 2, kBig);
  g.AddEdge(0, 2, 2 * kBig);  // ties with the two-hop route 0-1-2
  g.AddEdge(2, 3, kBig - 1);
  g.AddEdge(3, 4, kBig + 1);
  g.AddEdge(2, 4, 2 * kBig);  // ties with 2-3-4
  g.AddEdge(4, 5, 1);
  g.AddEdge(5, 6, kBig - 3);
  g.AddEdge(1, 6, 3 * kBig);
  g.Finalize();
  ExpectMatchesOracle(g, "hand-built 2^40");
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.weighted_diameter, 4 * kBig + 1);  // 0..5 via 0-2-4-5
  EXPECT_EQ(p.shortest_path_diameter, 3);

  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    SplitMix64 rng(seed);
    const Graph r = MakeConnectedRandom(40, 0.1, kBig - 50, kBig + 50, rng);
    ExpectMatchesOracle(r, "random near 2^40 seed " + std::to_string(seed));
  }
}

// D, WD and s range over reachable pairs only.
TEST(PropertiesTest, MatchesOracleOnDisconnectedGraphs) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    SplitMix64 rng(seed);
    const Graph a = MakeConnectedRandom(20, 0.15, 1, 50, rng);
    const Graph b = MakeGrid(4, 5, 1, 9, rng);
    for (const int isolated : {0, 3}) {
      const Graph g = DisjointUnion(a, b, isolated);
      const std::string what = "seed " + std::to_string(seed) + " isolated " +
                               std::to_string(isolated);
      ExpectMatchesOracle(g, what);
      EXPECT_FALSE(ComputeParameters(g).connected) << what;
    }
  }
  // A lone isolated node first: source 0 reaches nothing.
  const Graph g = DisjointUnion(Graph(1), MakePath(5, 3), 0);
  ExpectMatchesOracle(g, "isolated node 0");
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.unweighted_diameter, 4);
  EXPECT_EQ(p.weighted_diameter, 12);

  // Above 32 nodes the sweep runs in blocks. Isolated node 0, a 40-node
  // star, a random weighted 60-node tree and another 40-node star make 141
  // nodes in 5 blocks. The first and last blocks hold only node 0 and star
  // nodes, so D, WD and s come from the middle blocks alone, and
  // `connected` is false only in the block that ran source 0.
  SplitMix64 rng(7);
  const Graph head = DisjointUnion(Graph(1), MakeStar(40, 3), 0);
  const Graph tree = MakeConnectedRandom(60, 0.0, 1, 90, rng);
  const Graph big =
      DisjointUnion(DisjointUnion(head, tree, 0), MakeStar(40, 5), 0);
  ASSERT_EQ(big.NumNodes(), 141);
  ExpectMatchesOracle(big, "isolated node 0 + star + tree + star");
  const auto q = ComputeParameters(big);
  EXPECT_FALSE(q.connected);
  EXPECT_GT(q.unweighted_diameter, 2);
}

TEST(PropertiesTest, MatchesOracleOnTinyGraphs) {
  Graph empty(0);
  empty.Finalize();
  ExpectMatchesOracle(empty, "n=0");
  Graph one(1);
  one.Finalize();
  ExpectMatchesOracle(one, "n=1");
  Graph two_apart(2);
  two_apart.Finalize();
  ExpectMatchesOracle(two_apart, "n=2, no edge");
  EXPECT_FALSE(ComputeParameters(two_apart).connected);
  const Graph two = MakePath(2, 9);
  ExpectMatchesOracle(two, "n=2, one edge");
  const auto p = ComputeParameters(two);
  EXPECT_EQ(p.unweighted_diameter, 1);
  EXPECT_EQ(p.weighted_diameter, 9);
  EXPECT_EQ(p.shortest_path_diameter, 1);
}

// From source 0, node 3 has two least-weight paths of weight 4: 0-1-2-3
// (3 hops) and 0-4-3 (2 hops). Node 2 (distance 2) settles before node 4
// (distance 3), so the first offer 3 receives carries 3 hops; only the later
// equal-distance offer lowers it to 2. A kernel that keeps the first-settled
// hop count reports s = 3.
TEST(PropertiesTest, HopTieResolvedTowardFewerHops) {
  Graph g(5);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 3, 2);
  g.AddEdge(0, 4, 3);
  g.AddEdge(4, 3, 1);
  g.Finalize();
  ExpectMatchesOracle(g, "hop tie");
  const auto p = ComputeParameters(g);
  EXPECT_EQ(p.shortest_path_diameter, 2);
  EXPECT_EQ(p.unweighted_diameter, 2);
  EXPECT_EQ(p.weighted_diameter, 4);

  // The same gadget as nodes 60..64, hung off a 60-leaf star (3 blocks).
  // From any leaf, node 63 lies at weight 6 along leaf-0-60-61-62-63 (5
  // hops) and leaf-0-60-64-63 (4 hops), and the 5-hop offer arrives first:
  // s = 4, where a first-settled kernel reports 5.
  Graph star(65);
  for (NodeId leaf = 1; leaf <= 60; ++leaf) star.AddEdge(0, leaf, 1);
  star.AddEdge(60, 61, 1);
  star.AddEdge(61, 62, 1);
  star.AddEdge(62, 63, 2);
  star.AddEdge(60, 64, 3);
  star.AddEdge(64, 63, 1);
  star.Finalize();
  ExpectMatchesOracle(star, "hop tie in a star");
  const auto q = ComputeParameters(star);
  EXPECT_EQ(q.shortest_path_diameter, 4);
  EXPECT_EQ(q.unweighted_diameter, 4);
  EXPECT_EQ(q.weighted_diameter, 6);
}

// Above 32 nodes the sweep splits its sources into blocks that run on a
// RoundPool and combine by max. Every shape here spans several blocks.
TEST(PropertiesTest, MultiBlockSweepMatchesOracle) {
  using Params = std::vector<std::pair<std::string, std::string>>;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    SplitMix64 rng(seed);
    const std::string tag = " seed " + std::to_string(seed);
    ExpectMatchesOracle(MakeGrid(12, 15, 1, 1000, rng), "weighted grid" + tag);
    ExpectMatchesOracle(
        BuildGenerator("subdivided-er",
                       Params{{"n", "24"}, {"p", "0.2"}, {"max_w", "50"}},
                       seed),
        "subdivided-er" + tag);
    ExpectMatchesOracle(
        BuildGenerator("power-law", Params{{"n", "300"}, {"max_w", "100"}},
                       seed),
        "power-law" + tag);
  }
}

// 4 threads race on cold caches: all on one shared graph, then each on a
// graph of its own. Every result equals the oracle, and the shared graph
// hands every thread the same installed object.
TEST(PropertiesTest, CachedParametersIsSafeUnderConcurrentColdCalls) {
  constexpr int kThreads = 4;
  SplitMix64 rng(11);
  const Graph shared = MakeConnectedRandom(120, 0.05, 1, 1000, rng);
  std::vector<Graph> own;
  for (int i = 0; i < kThreads; ++i) {
    own.push_back(MakeGrid(8 + i, 9, 1, 20 + i, rng));
  }
  const GraphParameters shared_want = OracleParameters(shared);
  std::vector<GraphParameters> own_want;
  for (const Graph& g : own) own_want.push_back(OracleParameters(g));

  std::atomic<int> ready{0};
  std::vector<const GraphParameters*> shared_got(kThreads, nullptr);
  std::vector<GraphParameters> own_got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      const auto ui = static_cast<std::size_t>(i);
      shared_got[ui] = &CachedParameters(shared);
      own_got[ui] = CachedParameters(own[ui]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    ExpectSameParameters(*shared_got[ui], shared_want,
                         "shared, thread " + std::to_string(i));
    EXPECT_EQ(shared_got[ui], shared_got[0]) << i;
    ExpectSameParameters(own_got[ui], own_want[ui],
                         "own, thread " + std::to_string(i));
  }
}

}  // namespace
}  // namespace dsf
