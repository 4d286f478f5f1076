// Tests for the randomized distributed algorithm (Section 5, Theorem 5.2)
// and the Khan et al.-style baseline.
#include "dist/randomized.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "steiner/exact.hpp"
#include "steiner/validate.hpp"

namespace dsf {
namespace {

TEST(RandomizedTest, TwoTerminalPathFeasible) {
  const Graph g = MakePath(6, 2);
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {5, 1}});
  const auto res = RunRandomizedSteinerForest(g, ic);
  EXPECT_TRUE(IsFeasible(g, ic, res.forest));
  EXPECT_FALSE(res.forest.empty());
}

TEST(RandomizedTest, FeasibleAcrossSeedsAndGraphs) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(20, 0.15, 1, 16, rng);
    const IcInstance ic =
        MakeIcInstance(20, {{0, 1}, {7, 1}, {11, 2}, {15, 2}, {3, 3}, {18, 3}});
    const auto res = RunRandomizedSteinerForest(g, ic, {}, seed);
    EXPECT_TRUE(IsFeasible(g, ic, res.forest)) << seed;
    EXPECT_GE(g.WeightOf(res.forest), ExactSteinerForestWeight(g, ic)) << seed;
  }
}

TEST(RandomizedTest, ApproximationWithinLogFactor) {
  // O(log n) expected; with min-of-3 repetitions the ratio should be modest.
  double worst = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SplitMix64 rng(seed ^ 0xAA);
    const Graph g = MakeConnectedRandom(16, 0.25, 1, 20, rng);
    const IcInstance ic = MakeIcInstance(16, {{0, 1}, {6, 1}, {9, 2}, {14, 2}});
    RandomizedOptions opts;
    opts.repetitions = 3;
    const auto res = RunRandomizedSteinerForest(g, ic, opts, seed);
    const Weight opt = ExactSteinerForestWeight(g, ic);
    ASSERT_GT(opt, 0);
    worst = std::max(worst, static_cast<double>(g.WeightOf(res.forest)) /
                                static_cast<double>(opt));
  }
  // Theory: O(log n) ≈ 4 * log2(16) at worst; typical instances are far
  // better. Guard against regressions with a loose cap.
  EXPECT_LE(worst, 16.0);
}

TEST(RandomizedTest, DeterministicGivenSeed) {
  SplitMix64 rng(5);
  const Graph g = MakeConnectedRandom(14, 0.25, 1, 10, rng);
  const IcInstance ic = MakeIcInstance(14, {{0, 1}, {7, 1}, {4, 2}, {11, 2}});
  const auto a = RunRandomizedSteinerForest(g, ic, {}, 123);
  const auto b = RunRandomizedSteinerForest(g, ic, {}, 123);
  EXPECT_EQ(a.forest, b.forest);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
}

TEST(RandomizedTest, DifferentSeedsMayDiffer) {
  SplitMix64 rng(6);
  const Graph g = MakeConnectedRandom(18, 0.2, 1, 25, rng);
  const IcInstance ic = MakeIcInstance(18, {{0, 1}, {9, 1}, {5, 2}, {14, 2}});
  // Both feasible; weights may differ (randomized embedding).
  const auto a = RunRandomizedSteinerForest(g, ic, {}, 1);
  const auto b = RunRandomizedSteinerForest(g, ic, {}, 2);
  EXPECT_TRUE(IsFeasible(g, ic, a.forest));
  EXPECT_TRUE(IsFeasible(g, ic, b.forest));
}

TEST(RandomizedTest, RepetitionsNeverHurtWeight) {
  SplitMix64 rng(8);
  const Graph g = MakeConnectedRandom(16, 0.2, 1, 30, rng);
  const IcInstance ic = MakeIcInstance(16, {{0, 1}, {8, 1}, {4, 2}, {13, 2}});
  RandomizedOptions one;
  one.repetitions = 1;
  RandomizedOptions five;
  five.repetitions = 5;
  const auto r1 = RunRandomizedSteinerForest(g, ic, one, 77);
  const auto r5 = RunRandomizedSteinerForest(g, ic, five, 77);
  EXPECT_LE(g.WeightOf(r5.forest), g.WeightOf(r1.forest));
  EXPECT_GT(r5.stats.rounds, r1.stats.rounds);  // repetitions cost rounds
}

TEST(RandomizedTest, TruncatedRegimeOnHighSpdGraph) {
  // A subdivided graph has s >> sqrt(n): exercises the S-truncation path and
  // the F-reduced second stage.
  SplitMix64 rng(4);
  const Graph base = MakeConnectedRandom(8, 0.3, 1, 6, rng);
  const Graph g = SubdivideEdges(base, 12);
  const auto params = ComputeParameters(g);
  ASSERT_GT(static_cast<long>(params.shortest_path_diameter) *
                params.shortest_path_diameter,
            static_cast<long>(g.NumNodes()));
  const IcInstance ic = MakeIcInstance(
      g.NumNodes(), {{0, 1}, {3, 1}, {5, 2}, {7, 2}});
  const auto res = RunRandomizedSteinerForest(g, ic, {}, 11);
  EXPECT_TRUE(res.truncated);
  EXPECT_TRUE(IsFeasible(g, ic, res.forest));
  EXPECT_GT(res.stats.charged_rounds, 0);  // substituted stage was charged
}

TEST(RandomizedTest, ForcedTruncationAlsoFeasible) {
  SplitMix64 rng(12);
  const Graph g = MakeConnectedRandom(24, 0.15, 1, 12, rng);
  const IcInstance ic = MakeIcInstance(24, {{0, 1}, {11, 1}, {6, 2}, {19, 2}});
  RandomizedOptions opts;
  opts.embedding = RandomizedOptions::Embedding::kTruncated;
  const auto res = RunRandomizedSteinerForest(g, ic, opts, 9);
  EXPECT_TRUE(res.truncated);
  EXPECT_TRUE(IsFeasible(g, ic, res.forest));
}

// A1: the √n truncation of the LE-list embedding (the min{s, √n} term of
// Theorem 5.2) on high-s graphs — a 16-node ER graph with every edge
// subdivided into 4 / 8 / 16 pieces, two components on the original nodes.
// The truncated embedding took 51 / 88 / 160 rounds against the full one's
// 57 / 114 / 206 (total rounds 146/160, 245/271, 461/523).
TEST(RandomizedTest, TruncatedEmbeddingTakesFewerRoundsThanFull) {
  SplitMix64 rng(99);
  const Graph base = MakeConnectedRandom(16, 0.2, 1, 6, rng);
  SplitMix64 trng(5);
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(16, 0);
  for (Label c = 1; c <= 2; ++c) {
    for (int j = 0; j < 2; ++j) {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(trng.NextBelow(16));
      } while (used[static_cast<std::size_t>(v)]);
      used[static_cast<std::size_t>(v)] = 1;
      assign.push_back({v, c});
    }
  }
  RandomizedOptions truncated;
  truncated.embedding = RandomizedOptions::Embedding::kTruncated;
  RandomizedOptions full;
  full.embedding = RandomizedOptions::Embedding::kFull;
  for (const int pieces : {4, 8, 16}) {
    const Graph g = SubdivideEdges(base, pieces);
    const IcInstance ic = MakeIcInstance(g.NumNodes(), assign);
    const auto with = RunRandomizedSteinerForest(g, ic, truncated, 1);
    const auto without = RunRandomizedSteinerForest(g, ic, full, 1);
    SCOPED_TRACE(testing::Message() << "pieces=" << pieces);
    EXPECT_TRUE(with.truncated);
    EXPECT_FALSE(without.truncated);
    EXPECT_LT(with.le_rounds, without.le_rounds);
    EXPECT_TRUE(IsFeasible(g, ic, with.forest));
    EXPECT_TRUE(IsFeasible(g, ic, without.forest));
  }
}

TEST(RandomizedTest, EmptyInstance) {
  const Graph g = MakePath(5);
  const auto res = RunRandomizedSteinerForest(g, MakeIcInstance(5, {}));
  EXPECT_TRUE(res.forest.empty());
}

TEST(RandomizedTest, SingletonLabelsIgnored) {
  const Graph g = MakePath(6);
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {2, 1}, {5, 9}});
  const auto res = RunRandomizedSteinerForest(g, ic);
  EXPECT_TRUE(IsFeasible(g, MakeMinimal(ic), res.forest));
}

TEST(RandomizedTest, OutputWithinVirtualTreeBound) {
  // Stage-1 weight is bounded by the virtual-tree optimum (Lemma G.8) —
  // loosely: never more than Σ over terminals of the full root-path weight.
  SplitMix64 rng(3);
  const Graph g = MakeConnectedRandom(12, 0.3, 1, 8, rng);
  const IcInstance ic = MakeIcInstance(12, {{0, 1}, {6, 1}});
  const auto res = RunRandomizedSteinerForest(g, ic, {}, 5);
  const auto params = ComputeParameters(g);
  // Root-path weight: Σ_i β 2^i <= 4 * WD per terminal.
  EXPECT_LE(g.WeightOf(res.forest), 2 * 4 * params.weighted_diameter);
}

// --- Khan baseline ---

TEST(KhanBaselineTest, FeasibleAndHeavierRounds) {
  SplitMix64 rng(2);
  const Graph g = MakeConnectedRandom(20, 0.15, 1, 14, rng);
  const IcInstance ic =
      MakeIcInstance(20, {{0, 1}, {9, 1}, {4, 2}, {13, 2}, {7, 3}, {17, 3}});
  const auto khan = RunKhanBaseline(g, ic, 21);
  EXPECT_TRUE(IsFeasible(g, ic, khan.forest));
  const auto ours = RunRandomizedSteinerForest(g, ic, {}, 21);
  // The baseline repeats the selection stage per label; with k = 3 labels it
  // should cost more rounds than the filtered single pass.
  EXPECT_GT(khan.stats.rounds, ours.stats.rounds);
}

TEST(KhanBaselineTest, SingleComponentComparable) {
  SplitMix64 rng(13);
  const Graph g = MakeConnectedRandom(15, 0.25, 1, 10, rng);
  const IcInstance ic = MakeIcInstance(15, {{0, 1}, {7, 1}, {12, 1}});
  const auto khan = RunKhanBaseline(g, ic, 5);
  EXPECT_TRUE(IsFeasible(g, ic, khan.forest));
}

}  // namespace
}  // namespace dsf
