#include "pipeline.hpp"

#include <algorithm>
#include <array>
#include <exception>

#include "dist/transform.hpp"
#include "graph/properties.hpp"
#include "lowerbounds/dual_bound.hpp"
#include "solve/solver_spec.hpp"
#include "steiner/instance.hpp"
#include "steiner/prune.hpp"
#include "steiner/validate.hpp"

namespace perfbench {

namespace {

constexpr std::array<const char*, 6> kCoreSolvers = {
    "gw-moat", "greedy-merge", "mst-prune", "local-search", "dist-det",
    "dist-rand"};

}  // namespace

std::span<const char* const> CoreSolvers() { return kCoreSolvers; }

dsf::SolveResult TracedSolve(const dsf::SolveRequest& request,
                             std::uint64_t seed, SpanLog& log) {
  const dsf::SolverSpec spec = dsf::ParseSolverSpec(request.solver);
  const dsf::Solver& solver = dsf::SolverRegistry::Get(spec.base);
  const dsf::Graph& g = *request.graph;
  dsf::SolveOptions options = request.options;
  if (options.net.cancel == nullptr) options.net.cancel = options.cancel;

  dsf::SolveResult result;
  result.solver = spec.Canonical();
  // The all-pairs graph parameters are memoized per graph; the first
  // distributed run on a graph pays for them (dist/runtime.cpp).
  if (solver.Distributed() || request.use_cr) {
    Span(log, "graph.params", [&] { return dsf::CachedParameters(g).connected; });
  }
  dsf::IcInstance ic;
  if (request.use_cr) {
    auto transformed = Span(log, "dist.transform", [&] {
      return dsf::RunDistributedCrToIc(g, request.cr, seed, options.net);
    });
    result.transform_rounds = transformed.stats.rounds;
    result.transform_messages = transformed.stats.messages;
    result.transform_bits = transformed.stats.total_bits;
    log.AddCount("dist.transform_rounds", static_cast<double>(transformed.stats.rounds));
    log.AddCount("dist.transform_messages",
                 static_cast<double>(transformed.stats.messages));
    ic = std::move(transformed.instance);
  } else {
    ic = request.ic;
  }
  const dsf::IcInstance minimal =
      Span(log, "steiner.minimal", [&] { return dsf::MakeMinimal(ic); });

  dsf::SolverOutput core = Span(log, "core." + std::string(solver.Name()), [&] {
    return solver.SolveMinimal(g, minimal, options, seed);
  });
  const bool cancellable = options.cancel != nullptr;
  if (options.prune && !core.forest.empty()) {
    Span(log, "steiner.prune", [&] {
      if (!cancellable || dsf::IsFeasible(g, minimal, core.forest)) {
        core.forest = dsf::MinimalFeasibleSubforest(g, minimal, core.forest);
      }
      return 0;
    });
  }
  result.forest = std::move(core.forest);
  std::sort(result.forest.begin(), result.forest.end());
  result.weight = g.WeightOf(result.forest);
  result.stats = core.stats;
  result.dual_lower_bound = core.dual_sum;
  result.phases = core.phases;
  result.cancelled = core.cancelled || core.stats.cancelled;
  log.AddCount("congest.rounds", static_cast<double>(core.stats.rounds));
  log.AddCount("congest.messages", static_cast<double>(core.stats.messages));
  log.AddCount("congest.bits", static_cast<double>(core.stats.total_bits));
  log.AddCount("steiner.phases", static_cast<double>(core.phases));

  if (options.validate) {
    result.validated = true;
    result.feasible = Span(log, "steiner.validate", [&] {
      return dsf::IsFeasible(g, ic, result.forest) &&
             (!request.use_cr || dsf::IsFeasibleCr(g, request.cr, result.forest));
    });
  }
  return result;
}

std::string CheckForest(const dsf::Graph& g, const dsf::SolveRequest& request,
                        std::span<const dsf::EdgeId> forest,
                        dsf::Weight weight) {
  try {
    for (const dsf::EdgeId e : forest) {
      if (e < 0 || e >= g.NumEdges()) return "edge id out of range";
    }
    const dsf::IcInstance ic =
        request.use_cr ? dsf::CrToIc(request.cr) : request.ic;
    if (!dsf::IsFeasible(g, ic, forest)) return "forest is infeasible";
    if (request.use_cr && !dsf::IsFeasibleCr(g, request.cr, forest)) {
      return "forest misses a connection request";
    }
    if (g.WeightOf(forest) != weight) return "reported weight differs from the forest's";
  } catch (const std::exception& e) {
    return std::string("check threw: ") + e.what();
  }
  return "";
}

double DualOf(const dsf::Graph& g, const dsf::SolveRequest& request) {
  const dsf::IcInstance ic =
      request.use_cr ? dsf::CrToIc(request.cr) : request.ic;
  return static_cast<double>(dsf::FixedToReal(dsf::DualLowerBound(g, ic)));
}

}  // namespace perfbench
