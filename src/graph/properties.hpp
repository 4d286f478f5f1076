// Graph parameters used throughout the paper's statements (Section 2):
//   D  — unweighted (hop) diameter,
//   WD — weighted diameter: max over pairs of weighted distance,
//   s  — shortest-path diameter: max over pairs of the minimum hop count of a
//        least-weight path between them (the time Bellman-Ford needs).
#pragma once

#include "graph/graph.hpp"

namespace dsf {

struct GraphParameters {
  int unweighted_diameter = 0;   // D
  Weight weighted_diameter = 0;  // WD
  int shortest_path_diameter = 0;  // s
  bool connected = true;
};

// Exact computation in one all-pairs sweep: from every source, a BFS over a
// flat (neighbor, weight) CSR gives D, and a Dijkstra on a radix heap keyed
// by distance gives WD and s. Weights are >= 1, so a node's min-hop count
// among least-weight paths is final when it is popped and hop ties need no
// heap key. O(n * m * log C) work for largest distance C (a heap entry
// moves down at most log C buckets). The sources split into blocks of at
// most 32 that run on up to HardwareThreads() threads; a graph of at most
// 32 nodes runs inline. Each block owns its O(n) buffers, so memory is
// O(W * n + m) at width W. The result is the max over blocks, bit-identical
// at every width. D, WD and s range over reachable pairs; `connected`
// (from source 0's BFS) reports whether that is every pair.
GraphParameters ComputeParameters(const Graph& g);

// Memoized ComputeParameters for a finalized graph: computed on first call,
// then shared by every subsequent run on the same (immutable) topology —
// repeated protocol runs stop paying the all-pairs recomputation. Safe to
// call from several threads: concurrent BatchEngine executors may race on a
// cold graph. The install is serialized under a mutex, the computation runs
// outside it (a same-graph race computes twice and keeps the first result),
// and the returned reference stays valid for the graph's lifetime.
const GraphParameters& CachedParameters(const Graph& g);

// True if g is connected.
bool IsConnected(const Graph& g);

}  // namespace dsf
