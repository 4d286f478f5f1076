#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace dsf {
namespace {

TEST(GraphTest, EmptyGraph) {
  Graph g(0);
  g.Finalize();
  EXPECT_EQ(g.NumNodes(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_EQ(g.TotalWeight(), 0);
}

TEST(GraphTest, SingleNode) {
  Graph g(1);
  g.Finalize();
  EXPECT_EQ(g.NumNodes(), 1);
  EXPECT_TRUE(g.Neighbors(0).empty());
}

TEST(GraphTest, AddEdgeReturnsSequentialIds) {
  Graph g(3);
  EXPECT_EQ(g.AddEdge(0, 1, 5), 0);
  EXPECT_EQ(g.AddEdge(1, 2, 7), 1);
  g.Finalize();
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_EQ(g.GetEdge(0).w, 5);
  EXPECT_EQ(g.GetEdge(1).w, 7);
}

TEST(GraphTest, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_THROW(g.AddEdge(1, 1, 1), std::logic_error);
}

TEST(GraphTest, RejectsNonPositiveWeight) {
  Graph g(2);
  EXPECT_THROW(g.AddEdge(0, 1, 0), std::logic_error);
  EXPECT_THROW(g.AddEdge(0, 1, -3), std::logic_error);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  Graph g(2);
  EXPECT_THROW(g.AddEdge(0, 2, 1), std::logic_error);
  EXPECT_THROW(g.AddEdge(-1, 1, 1), std::logic_error);
}

TEST(GraphTest, NeighborsListsBothDirections) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(0, 2, 2);
  g.AddEdge(2, 3, 3);
  g.Finalize();
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_EQ(g.Degree(1), 1);
  EXPECT_EQ(g.Degree(2), 2);
  EXPECT_EQ(g.Degree(3), 1);
  const auto nb0 = g.Neighbors(0);
  std::vector<NodeId> ids;
  for (const auto& inc : nb0) ids.push_back(inc.neighbor);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<NodeId>{1, 2}));
}

TEST(GraphTest, EdgeOther) {
  const Edge e{3, 7, 2};
  EXPECT_EQ(e.Other(3), 7);
  EXPECT_EQ(e.Other(7), 3);
}

TEST(GraphTest, TotalWeight) {
  Graph g(3);
  g.AddEdge(0, 1, 10);
  g.AddEdge(1, 2, 20);
  g.Finalize();
  EXPECT_EQ(g.TotalWeight(), 30);
}

// The total edge weight may reach kMaxTotalWeight but not pass it, so no
// path or subset sum can overflow.
TEST(GraphTest, FinalizeCapsTotalWeight) {
  constexpr Weight kHalf = kMaxTotalWeight / 2;
  Graph at_cap(3);
  at_cap.AddEdge(0, 1, kHalf);
  at_cap.AddEdge(1, 2, kHalf);
  at_cap.Finalize();
  EXPECT_EQ(at_cap.TotalWeight(), kMaxTotalWeight);

  Graph over(4);
  over.AddEdge(0, 1, kHalf);
  over.AddEdge(1, 2, kHalf);
  over.AddEdge(2, 3, 1);
  EXPECT_THROW(over.Finalize(), std::logic_error);

  Graph huge(4);
  for (NodeId v = 0; v < 3; ++v) {
    huge.AddEdge(v, v + 1, 4'000'000'000'000'000'000);
  }
  EXPECT_THROW(huge.Finalize(), std::logic_error);
}

TEST(GraphTest, WeightOfSubset) {
  Graph g(4);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 2);
  g.AddEdge(2, 3, 4);
  g.Finalize();
  const std::vector<EdgeId> subset{0, 2};
  EXPECT_EQ(g.WeightOf(subset), 5);
}

TEST(GraphTest, IsForestDetectsCycle) {
  Graph g(3);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(2, 0, 1);
  g.Finalize();
  EXPECT_TRUE(g.IsForest(std::vector<EdgeId>{0, 1}));
  EXPECT_FALSE(g.IsForest(std::vector<EdgeId>{0, 1, 2}));
}

TEST(GraphTest, MakeGraphConvenience) {
  const Graph g = MakeGraph(3, {{0, 1, 2}, {1, 2, 3}});
  EXPECT_TRUE(g.Finalized());
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_EQ(g.Summary(), "Graph(n=3, m=2)");
}

TEST(GraphTest, ParallelEdgesKeepDistinctIds) {
  Graph g(2);
  g.AddEdge(0, 1, 1);
  g.AddEdge(0, 1, 9);
  g.Finalize();
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_FALSE(g.IsForest(std::vector<EdgeId>{0, 1}));
}

}  // namespace
}  // namespace dsf
