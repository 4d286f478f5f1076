// Lower-bound gadget families (Section 3).
//
// Lemma 3.1 (DSF-CR, Ω(t/log n), D <= 4, k <= 2): Alice's star pair / Bob's
// star pair joined by four cross edges, two of them heavier than ρ times any
// feasible solution of a disjoint instance; a ρ-approximate solution uses a
// heavy edge iff A ∩ B ≠ ∅, so solving DSF-CR answers Set Disjointness and
// everything Alice and Bob exchange crosses the four-edge cut.
//
// Lemma 3.3 (DSF-IC, Ω(k/log n), unweighted, D = 3): two stars joined by one
// edge; element i in A (resp. B) labels leaf a_i (resp. b_i) with component
// i. The joining edge is in any feasible output iff A ∩ B ≠ ∅.
//
// Lemma 3.4 (Ω(s) for s ∈ O(√n), t = 2, k = 1): a weighted path between the
// two terminals plus a heavy low-diameter hub overlay, so D stays O(1) while
// every least-weight route still traverses the whole path.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "steiner/instance.hpp"

namespace dsf {

struct CrGadget {
  Graph graph;
  CrInstance cr;
  std::vector<EdgeId> cut;    // the four Alice/Bob cross edges
  std::vector<EdgeId> heavy;  // the two heavy cross edges
  int universe = 0;           // m: |[m]| of the Set-Disjointness instance
};

// Builds the Lemma 3.1 gadget for A, B ⊆ {1..universe}. `rho` is the
// approximation ratio the tested algorithm guarantees (heavy weight is
// rho * (2m + 2) + 1).
CrGadget BuildCrGadget(const std::vector<int>& a, const std::vector<int>& b,
                       int universe, Weight rho);

// True iff the forest answers "A and B are disjoint" (no heavy edge used).
bool CrGadgetAnswersDisjoint(const CrGadget& gadget,
                             std::span<const EdgeId> forest);

struct IcGadget {
  Graph graph;
  IcInstance ic;
  std::vector<EdgeId> cut;  // the single (a0, b0) edge
  EdgeId bridge = kNoEdge;
  int universe = 0;
};

// Builds the Lemma 3.3 gadget (all unit weights, diameter 3).
IcGadget BuildIcGadget(const std::vector<int>& a, const std::vector<int>& b,
                       int universe);

bool IcGadgetAnswersDisjoint(const IcGadget& gadget,
                             std::span<const EdgeId> forest);

struct PathGadget {
  Graph graph;
  IcInstance ic;  // t = 2 terminals (path endpoints), k = 1
  int path_length = 0;
};

// Builds the Lemma 3.4-flavored family: a unit-weight path of `path_length`
// edges between the two terminals, plus a hub (node path_length + 1) joined
// to every `stride`-th path node and to the last one, with weight
// 2*path_length (no weighted shortcut). Every path node is within
// floor(stride/2) hops of a hub neighbour, so for path_length >= 3*stride
// D = 2*floor(stride/2) + 2 (6 at stride 4, 4 at stride 2), while
// s = path_length.
PathGadget BuildPathGadget(int path_length, int stride);

}  // namespace dsf
