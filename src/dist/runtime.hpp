// Shared plumbing for the dist/ protocol wrappers: every Run* entry point
// computes the globally known parameters (footnote 2 of the paper grants n,
// D, s — and the randomized algorithm's level count needs a WD bound), and
// rejects disconnected topologies, on which the BFS coordination tree (and
// hence every protocol) cannot be built.
#pragma once

#include <cstdint>
#include <set>
#include <span>

#include "congest/network.hpp"
#include "graph/graph.hpp"

namespace dsf::detail {

// Computes {n, D, s, WD} for `g` and throws std::logic_error (via DSF_CHECK)
// when g is disconnected.
StaticKnowledge KnownOrThrow(const Graph& g);

// The labels held by fewer than two terminals among convergecast
// (node, label) items — the components Lemma 2.4 drops. Shared by the
// standalone minimization protocol and the moat protocol's inline
// minimization so the two cannot diverge.
std::set<Label> SingletonLabels(std::span<const FieldList> terminal_items);

}  // namespace dsf::detail
