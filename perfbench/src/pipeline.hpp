// The solve pipeline seen from outside: a stage-by-stage replica of
// dsf::Solve built from each layer's public functions (for the traced
// run), and the correctness gate every returned forest goes through.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "measure.hpp"
#include "solve/solver.hpp"

namespace perfbench {

// Runs `request` with `seed` through the same stages as dsf::Solve, one
// leaf span per stage: graph.params (distributed solvers and CR inputs),
// dist.transform (CR inputs), steiner.minimal, core.<solver>,
// steiner.prune, steiner.validate. Work counters land in `log` as well.
// Any stage dsf::Solve runs that is missing here shows up as unaccounted
// time in the traced run instead of disappearing.
[[nodiscard]] dsf::SolveResult TracedSolve(const dsf::SolveRequest& request,
                                           std::uint64_t seed, SpanLog& log);

// The correctness gate: `forest` must be feasible for the request's
// instance on `g` (the benchmark's own copy of the graph, IC and CR forms both
// checked for CR inputs) and weigh `weight`. Returns "" when it passes,
// otherwise the reason.
[[nodiscard]] std::string CheckForest(const dsf::Graph& g,
                                      const dsf::SolveRequest& request,
                                      std::span<const dsf::EdgeId> forest,
                                      dsf::Weight weight);

// Lemma C.4 dual of the request's instance (CR inputs via the centralized
// Lemma 2.3 transform), as a real number.
[[nodiscard]] double DualOf(const dsf::Graph& g,
                            const dsf::SolveRequest& request);

// Registry names the traced run reports a core.<solver>_ms metric for.
[[nodiscard]] std::span<const char* const> CoreSolvers();

}  // namespace perfbench
