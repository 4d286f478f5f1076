#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

#include "graph/union_find.hpp"

namespace dsf {

EdgeId Graph::AddEdge(NodeId u, NodeId v, Weight w) {
  DSF_CHECK(!finalized_);
  DSF_CHECK_MSG(u >= 0 && u < n_ && v >= 0 && v < n_,
                "edge endpoint out of range: {" << u << "," << v << "}");
  DSF_CHECK_MSG(u != v, "self-loop at node " << u);
  DSF_CHECK_MSG(w >= 1, "edge weight must be a positive integer, got " << w);
  edges_.push_back(Edge{u, v, w});
  return static_cast<EdgeId>(edges_.size() - 1);
}

void Graph::Finalize() {
  DSF_CHECK(!finalized_);
  Weight total = 0;
  for (const auto& e : edges_) {
    DSF_CHECK_MSG(e.w <= kMaxTotalWeight - total,
                  "total edge weight exceeds " << kMaxTotalWeight);
    total += e.w;
  }
  std::fill(adj_index_.begin(), adj_index_.end(), 0);
  for (const auto& e : edges_) {
    ++adj_index_[static_cast<std::size_t>(e.u) + 1];
    ++adj_index_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i < adj_index_.size(); ++i) {
    adj_index_[i] += adj_index_[i - 1];
  }
  adj_.resize(2 * edges_.size());
  mirror_.resize(2 * edges_.size());
  slot_dir_.resize(2 * edges_.size());
  std::vector<std::size_t> cursor(adj_index_.begin(), adj_index_.end() - 1);
  for (EdgeId id = 0; id < NumEdges(); ++id) {
    const auto& e = edges_[static_cast<std::size_t>(id)];
    const std::size_t slot_u = cursor[static_cast<std::size_t>(e.u)]++;
    const std::size_t slot_v = cursor[static_cast<std::size_t>(e.v)]++;
    adj_[slot_u] = Incidence{e.v, id};
    adj_[slot_v] = Incidence{e.u, id};
    mirror_[slot_u] = static_cast<std::int32_t>(
        slot_v - adj_index_[static_cast<std::size_t>(e.v)]);
    mirror_[slot_v] = static_cast<std::int32_t>(
        slot_u - adj_index_[static_cast<std::size_t>(e.u)]);
    slot_dir_[slot_u] = 2 * static_cast<std::uint32_t>(id);
    slot_dir_[slot_v] = 2 * static_cast<std::uint32_t>(id) + 1;
  }
  finalized_ = true;
}

Weight Graph::WeightOf(std::span<const EdgeId> subset) const {
  Weight sum = 0;
  for (const EdgeId e : subset) sum += GetEdge(e).w;
  return sum;
}

bool Graph::IsForest(std::span<const EdgeId> subset) const {
  UnionFind uf(n_);
  for (const EdgeId id : subset) {
    const auto& e = GetEdge(id);
    if (!uf.Union(e.u, e.v)) return false;
  }
  return true;
}

std::string Graph::Summary() const {
  std::ostringstream os;
  os << "Graph(n=" << n_ << ", m=" << NumEdges() << ")";
  return os.str();
}

Graph MakeGraph(int n, const std::vector<Edge>& edges) {
  Graph g(n);
  for (const auto& e : edges) g.AddEdge(e.u, e.v, e.w);
  g.Finalize();
  return g;
}

}  // namespace dsf
