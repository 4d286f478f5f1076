#include "graph/properties.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <mutex>
#include <vector>

#include "graph/shortest_paths.hpp"

namespace dsf {

namespace {

// One directed arc of the flat adjacency the sweep reads: the weight sits
// next to the neighbor, so relaxation never goes through GetEdge.
struct Arc {
  NodeId to;
  Weight w;
};

// Monotone integer priority queue (a radix heap). A key lives in bucket
// b = bit_width(key ^ last), where `last` is the most recently popped key:
// bucket 0 holds keys equal to it, bucket b keys that first differ from it
// at bit b - 1. Popping from an empty bucket 0 takes the lowest non-empty
// bucket, makes its minimum the new `last` and redistributes its entries
// into strictly lower buckets. Each entry therefore moves at most 64 times,
// whatever the largest key, and the structure needs no weight range. Pushed
// keys must be >= the last popped key, which Dijkstra with weights >= 0
// guarantees.
class RadixHeap {
 public:
  struct Entry {
    std::uint64_t key;
    NodeId node;
  };

  [[nodiscard]] bool Empty() const noexcept { return size_ == 0; }

  void Push(std::uint64_t key, NodeId node) {
    Place(BucketOf(key), {key, node});
    ++size_;
  }

  // Removes and returns an entry with the minimum key. Requires !Empty().
  Entry Pop() {
    auto& zero = buckets_[0];
    if (zero.empty()) {
      const int b = std::countr_zero(occupied_) + 1;
      auto& from = buckets_[static_cast<std::size_t>(b)];
      occupied_ &= ~(std::uint64_t{1} << (b - 1));
      last_ = std::min_element(from.begin(), from.end(),
                               [](const Entry& x, const Entry& y) {
                                 return x.key < y.key;
                               })
                  ->key;
      for (const Entry& e : from) Place(BucketOf(e.key), e);
      from.clear();
    }
    const Entry e = zero.back();
    zero.pop_back();
    --size_;
    return e;
  }

  // Rewinds an emptied heap for the next source; bucket capacity is kept.
  void Rewind() noexcept { last_ = 0; }

 private:
  [[nodiscard]] int BucketOf(std::uint64_t key) const noexcept {
    return std::bit_width(key ^ last_);
  }

  void Place(int b, Entry e) {
    buckets_[static_cast<std::size_t>(b)].push_back(e);
    if (b != 0) occupied_ |= std::uint64_t{1} << (b - 1);
  }

  std::array<std::vector<Entry>, 65> buckets_;
  std::uint64_t occupied_ = 0;  // bit b - 1 set iff bucket b >= 1 is non-empty
  std::uint64_t last_ = 0;
  std::size_t size_ = 0;
};

}  // namespace

GraphParameters ComputeParameters(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.NumNodes());
  const std::vector<Edge>& edges = g.Edges();

  // Flat (neighbor, weight) CSR, built once per call.
  std::vector<std::size_t> first(n + 1, 0);
  std::vector<Arc> arcs;
  arcs.reserve(2 * edges.size());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    first[static_cast<std::size_t>(u)] = arcs.size();
    for (const Incidence& inc : g.Neighbors(u)) {
      const Weight w = edges[static_cast<std::size_t>(inc.edge)].w;
      arcs.push_back({inc.neighbor, w});
    }
  }
  first[n] = arcs.size();

  // Per-source work buffers, reused by every source.
  std::vector<int> depth(n);
  std::vector<NodeId> queue(n);
  std::vector<Weight> dist(n);
  std::vector<int> hops(n);
  RadixHeap heap;

  GraphParameters p;
  for (NodeId s = 0; s < g.NumNodes(); ++s) {
    const auto si = static_cast<std::size_t>(s);

    // BFS: the last node dequeued is the farthest in hops.
    std::fill(depth.begin(), depth.end(), -1);
    depth[si] = 0;
    queue[0] = s;
    std::size_t head = 0;
    std::size_t tail = 1;
    while (head < tail) {
      const auto u = static_cast<std::size_t>(queue[head++]);
      for (std::size_t a = first[u]; a < first[u + 1]; ++a) {
        const auto v = static_cast<std::size_t>(arcs[a].to);
        if (depth[v] < 0) {
          depth[v] = depth[u] + 1;
          queue[tail++] = arcs[a].to;
        }
      }
    }
    const auto farthest = static_cast<std::size_t>(queue[tail - 1]);
    p.unweighted_diameter = std::max(p.unweighted_diameter, depth[farthest]);
    if (s == 0) p.connected = tail == n;

    // Dijkstra keyed on distance alone. Weights are >= 1, so by the time u
    // is popped at distance d every node closer than d has been popped and
    // has relaxed its arcs; that includes every predecessor of u on a
    // least-weight path. hops[u], lowered on equal-distance offers, is
    // therefore already the minimum hop count among least-weight paths.
    std::fill(dist.begin(), dist.end(), kInfWeight);
    dist[si] = 0;
    hops[si] = 0;
    heap.Rewind();
    heap.Push(0, s);
    while (!heap.Empty()) {
      const RadixHeap::Entry top = heap.Pop();
      const auto u = static_cast<std::size_t>(top.node);
      const auto d = static_cast<Weight>(top.key);
      if (d != dist[u]) continue;  // superseded by a shorter offer
      p.weighted_diameter = std::max(p.weighted_diameter, d);
      p.shortest_path_diameter = std::max(p.shortest_path_diameter, hops[u]);
      const int nh = hops[u] + 1;
      for (std::size_t a = first[u]; a < first[u + 1]; ++a) {
        const auto v = static_cast<std::size_t>(arcs[a].to);
        const Weight nd = d + arcs[a].w;
        if (nd < dist[v]) {
          dist[v] = nd;
          hops[v] = nh;
          heap.Push(static_cast<std::uint64_t>(nd), arcs[a].to);
        } else if (nd == dist[v] && nh < hops[v]) {
          hops[v] = nh;
        }
      }
    }
  }
  return p;
}

const GraphParameters& CachedParameters(const Graph& g) {
  DSF_CHECK(g.Finalized());
  // Concurrent batch solves share one Graph and may race to fill a cold
  // cache (BatchEngine fans requests across the round pool), so the lazy
  // install is serialized. The expensive all-pairs computation runs outside
  // the lock: a cold same-graph race wastes one duplicate computation, but
  // callers needing an unrelated (or warm) graph never block behind it.
  // Once installed the object is never replaced, so the returned reference
  // stays valid for the graph's lifetime.
  static std::mutex mu;
  {
    const std::lock_guard<std::mutex> lock(mu);
    if (g.params_cache_ != nullptr) return *g.params_cache_;
  }
  auto computed = std::make_shared<const GraphParameters>(ComputeParameters(g));
  const std::lock_guard<std::mutex> lock(mu);
  if (g.params_cache_ == nullptr) g.params_cache_ = std::move(computed);
  return *g.params_cache_;
}

bool IsConnected(const Graph& g) {
  if (g.NumNodes() == 0) return true;
  return ConnectedComponents(g).count == 1;
}

}  // namespace dsf
