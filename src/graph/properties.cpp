#include "graph/properties.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/round_pool.hpp"
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

// Flat (neighbor, weight) CSR: node u's arcs are arcs[first[u] .. first[u+1]).
struct ArcTable {
  std::vector<std::size_t> first;
  std::vector<Arc> arcs;
};

ArcTable BuildArcTable(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.NumNodes());
  const std::vector<Edge>& edges = g.Edges();
  ArcTable t;
  t.first.assign(n + 1, 0);
  t.arcs.reserve(2 * edges.size());
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    t.first[static_cast<std::size_t>(u)] = t.arcs.size();
    for (const Incidence& inc : g.Neighbors(u)) {
      const Weight w = edges[static_cast<std::size_t>(inc.edge)].w;
      t.arcs.push_back({inc.neighbor, w});
    }
  }
  t.first[n] = t.arcs.size();
  return t;
}

// Most sources per block of the sweep; a graph of n nodes splits into
// ceil(n / kSourcesPerBlock) blocks. A graph with at most this many nodes is
// one block and runs inline. Above it, blocks go to a RoundPool whose
// threads start per call, so a block must repay a thread start. Measured on
// 4 cores (Release, sparse ER at p = 6/n, 5 graphs per n), two equal blocks
// lose below n = 32 (93 vs 72 us at n = 32), break even at n = 36 (126 vs
// 128 us) and win from there on (224 vs 326 us at n = 48).
constexpr int kSourcesPerBlock = 32;

// One BFS and one Dijkstra from every source in [lo, hi), on work buffers
// this block owns. Returns the block's maxima; `connected` is decided only
// by the block that holds source 0 and stays true in every other block, so
// blocks combine by max and logical and, in any order.
GraphParameters SweepBlock(const ArcTable& t, NodeId lo, NodeId hi) {
  const std::size_t n = t.first.size() - 1;
  const std::vector<std::size_t>& first = t.first;
  const std::vector<Arc>& arcs = t.arcs;
  std::vector<int> depth(n);
  std::vector<NodeId> queue(n);
  std::vector<Weight> dist(n);
  std::vector<int> hops(n);
  RadixHeap heap;

  GraphParameters p;
  for (NodeId s = lo; s < hi; ++s) {
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
    // d + w cannot overflow: the graph's total weight is at most
    // kMaxTotalWeight.
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

}  // namespace

GraphParameters ComputeParameters(const Graph& g) {
  const ArcTable t = BuildArcTable(g);
  const int n = g.NumNodes();
  const int blocks = (n + kSourcesPerBlock - 1) / kSourcesPerBlock;
  const int width = std::min(HardwareThreads(), blocks);
  if (width <= 1) return SweepBlock(t, 0, n);

  // Block b holds sources [b * n / blocks, (b + 1) * n / blocks): sizes
  // differ by at most one, so no ragged last block stretches the tail.
  const auto bound = [&](int b) {
    return static_cast<NodeId>(std::int64_t{b} * n / blocks);
  };
  std::vector<GraphParameters> part(static_cast<std::size_t>(blocks));
  detail::RoundPool pool(width);
  pool.ParallelFor(blocks, [&](int b) {
    part[static_cast<std::size_t>(b)] = SweepBlock(t, bound(b), bound(b + 1));
  });
  // Max and logical and do not depend on the order of the blocks, so the
  // result is bit-identical to a one-block sweep at every width.
  GraphParameters p;
  for (const GraphParameters& q : part) {
    p.unweighted_diameter =
        std::max(p.unweighted_diameter, q.unweighted_diameter);
    p.weighted_diameter = std::max(p.weighted_diameter, q.weighted_diameter);
    p.shortest_path_diameter =
        std::max(p.shortest_path_diameter, q.shortest_path_diameter);
    p.connected = p.connected && q.connected;
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
