// Distributed input transformations (Lemmas 2.3 and 2.4).
//
// RunDistributedCrToIc: DSF-CR -> DSF-IC in O(t + D) rounds. Connection
// requests are convergecast to the BFS root over a pipelined collection; the
// root identifies the connected components of the request graph and assigns
// each the smallest terminal identifier it contains as the component label
// (exactly the labeling of the centralized `CrToIc`), then pipelines the
// (terminal, label) assignments back down the tree.
//
// RunDistributedMakeMinimal: instance minimization in O(t + D) collection +
// O(k + D) broadcast rounds. Terminals report (id, label); the root counts
// label multiplicities and broadcasts the <= k labels with a single terminal,
// which their holders drop (Lemma 2.4: singleton components are trivially
// satisfied).
//
// Both protocols only use local knowledge plus the coordination primitives of
// congest/protocols.hpp; the returned instance is assembled from the
// per-node program states after the run.
#pragma once

#include <cstdint>
#include <span>

#include "congest/network.hpp"
#include "steiner/instance.hpp"

namespace dsf {

struct TransformResult {
  IcInstance instance;
  RunStats stats;
};

// Lemma 2.3: the equivalent DSF-IC instance of a DSF-CR instance, computed
// distributively. Labels are the smallest terminal id per request component.
// `net_opts` carries the simulator run options (cancellation, DESIGN.md §2).
TransformResult RunDistributedCrToIc(const Graph& g, const CrInstance& cr,
                                     std::uint64_t seed = 1,
                                     const NetworkOptions& net_opts = {});

// Lemma 2.4: drops labels held by a single terminal, distributively.
// Traffic over `metered_cut` is metered separately (Section 3 harness).
TransformResult RunDistributedMakeMinimal(
    const Graph& g, const IcInstance& ic, std::uint64_t seed = 1,
    const NetworkOptions& net_opts = {},
    std::span<const EdgeId> metered_cut = {});

}  // namespace dsf
