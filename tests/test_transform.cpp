// Tests for the distributed input transformations (Lemmas 2.3 / 2.4).
#include "dist/transform.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace dsf {
namespace {

// Size of the fixed-diameter ER family the round budgets sweep t and k on.
constexpr int kErN = 80;
// The O(t + D) / O(k + D) constant of the ER family's round budgets. The
// largest measured ratios are 2.0 (CR->IC, t = 8) and 2.22 (MakeMinimal,
// k = 4), so the budget leaves 1.5x resp. 1.35x headroom.
constexpr int kTransformRoundsC = 3;

TEST(CrToIcDistTest, MatchesCentralizedOnFixtures) {
  const Graph g = MakePath(8);
  const CrInstance cr = MakeCrInstance(8, {{0, 3}, {3, 6}, {1, 5}});
  const auto res = RunDistributedCrToIc(g, cr);
  EXPECT_TRUE(EquivalentInstances(res.instance, CrToIc(cr)));
}

TEST(CrToIcDistTest, MatchesCentralizedOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(20, 0.15, 1, 9, rng);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < 6; ++i) {
      const auto u = static_cast<NodeId>(rng.NextBelow(20));
      const auto v = static_cast<NodeId>(rng.NextBelow(20));
      if (u != v) pairs.push_back({u, v});
    }
    const CrInstance cr = MakeCrInstance(20, pairs);
    const auto res = RunDistributedCrToIc(g, cr, seed);
    EXPECT_TRUE(EquivalentInstances(res.instance, CrToIc(cr))) << seed;
  }
}

TEST(CrToIcDistTest, LabelIsSmallestTerminalId) {
  const Graph g = MakeStar(6);
  const CrInstance cr = MakeCrInstance(6, {{5, 2}, {2, 4}});
  const auto res = RunDistributedCrToIc(g, cr);
  EXPECT_EQ(res.instance.LabelOf(2), 2);
  EXPECT_EQ(res.instance.LabelOf(4), 2);
  EXPECT_EQ(res.instance.LabelOf(5), 2);
  EXPECT_EQ(res.instance.LabelOf(0), kNoLabel);
}

TEST(CrToIcDistTest, EmptyRequests) {
  const Graph g = MakePath(5);
  const auto res = RunDistributedCrToIc(g, MakeCrInstance(5, {}));
  EXPECT_EQ(res.instance.NumTerminals(), 0);
}

TEST(CrToIcDistTest, RoundsLinearInRequestsPlusDiameter) {
  // Lemma 2.3: O(t + D).
  const Graph g = MakePath(40);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 10; ++i) pairs.push_back({i, 39 - i});
  const CrInstance cr = MakeCrInstance(40, pairs);
  const auto res = RunDistributedCrToIc(g, cr);
  EXPECT_LE(res.stats.rounds, 8 * (40 + 20));

  // The t-sweep on a fixed ER n = 80, D = 5 graph: 26 / 34 / 48 / 80 rounds
  // at t = 8 / 13 / 21 / 41, at most 2.0 (t + D).
  SplitMix64 rng(1234);
  const Graph er = MakeConnectedRandom(kErN, 0.06, 1, 9, rng);
  const int d = ComputeParameters(er).unweighted_diameter;
  ASSERT_EQ(d, 5);
  for (const int requests : {4, 8, 16, 32}) {
    SplitMix64 prng(static_cast<std::uint64_t>(requests));
    std::vector<std::pair<NodeId, NodeId>> er_pairs;
    for (int i = 0; i < requests; ++i) {
      const auto u = static_cast<NodeId>(prng.NextBelow(kErN));
      const auto v = static_cast<NodeId>(prng.NextBelow(kErN));
      if (u != v) er_pairs.push_back({u, v});
    }
    const CrInstance er_cr = MakeCrInstance(kErN, er_pairs);
    const auto er_res = RunDistributedCrToIc(er, er_cr);
    EXPECT_LE(er_res.stats.rounds,
              kTransformRoundsC * (er_cr.NumTerminals() + d))
        << "requests=" << requests;
  }
}

TEST(MakeMinimalDistTest, DropsSingletons) {
  const Graph g = MakeCycle(8);
  const IcInstance ic = MakeIcInstance(8, {{0, 1}, {3, 1}, {5, 2}, {7, 3}});
  const auto res = RunDistributedMakeMinimal(g, ic);
  EXPECT_TRUE(EquivalentInstances(res.instance, MakeMinimal(ic)));
  EXPECT_EQ(res.instance.LabelOf(0), 1);
  EXPECT_EQ(res.instance.LabelOf(3), 1);
  EXPECT_EQ(res.instance.LabelOf(5), kNoLabel);
  EXPECT_EQ(res.instance.LabelOf(7), kNoLabel);
}

TEST(MakeMinimalDistTest, MatchesCentralizedOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(24, 0.15, 1, 9, rng);
    std::vector<std::pair<NodeId, Label>> assign;
    for (int i = 0; i < 10; ++i) {
      const auto v = static_cast<NodeId>(rng.NextBelow(24));
      const auto lab = static_cast<Label>(1 + rng.NextBelow(5));
      assign.push_back({v, lab});
    }
    const IcInstance ic = MakeIcInstance(24, assign);
    const auto res = RunDistributedMakeMinimal(g, ic, seed);
    EXPECT_TRUE(EquivalentInstances(res.instance, MakeMinimal(ic))) << seed;
  }
}

TEST(MakeMinimalDistTest, AllMinimalAlreadyKept) {
  const Graph g = MakePath(6);
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {5, 1}, {2, 2}, {3, 2}});
  const auto res = RunDistributedMakeMinimal(g, ic);
  EXPECT_TRUE(EquivalentInstances(res.instance, ic));
}

TEST(MakeMinimalDistTest, RoundsLinearInComponentsPlusDiameter) {
  // Lemma 2.4: O(k + D); with k = 3 on a path of length 50 this is ~O(D).
  const Graph g = MakePath(50);
  const IcInstance ic =
      MakeIcInstance(50, {{0, 1}, {49, 1}, {10, 2}, {20, 2}, {30, 3}, {40, 3}});
  const auto res = RunDistributedMakeMinimal(g, ic);
  EXPECT_LE(res.stats.rounds, 8 * (50 + 10));

  // The k-sweep on a fixed ER n = 80, D = 5 graph, half of the components
  // singletons (dropped): 20 / 22 / 30 / 46 rounds at k = 4 / 8 / 16 / 32,
  // at most 2.22 (k + D).
  SplitMix64 rng(777);
  const Graph er = MakeConnectedRandom(kErN, 0.06, 1, 9, rng);
  const int d = ComputeParameters(er).unweighted_diameter;
  ASSERT_EQ(d, 5);
  for (const int k : {4, 8, 16, 32}) {
    SplitMix64 trng(static_cast<std::uint64_t>(k) * 5);
    std::vector<std::pair<NodeId, Label>> assign;
    std::vector<char> used(kErN, 0);
    const auto fresh = [&] {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(trng.NextBelow(kErN));
      } while (used[static_cast<std::size_t>(v)]);
      used[static_cast<std::size_t>(v)] = 1;
      return v;
    };
    for (Label c = 1; c <= k; ++c) {
      assign.push_back({fresh(), c});
      if (c % 2 == 1) assign.push_back({fresh(), c});
    }
    const auto er_res =
        RunDistributedMakeMinimal(er, MakeIcInstance(kErN, assign));
    EXPECT_EQ(er_res.instance.NumComponents(), k / 2);
    EXPECT_LE(er_res.stats.rounds, kTransformRoundsC * (k + d)) << "k=" << k;
  }
}

}  // namespace
}  // namespace dsf
