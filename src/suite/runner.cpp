#include "suite/runner.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/random.hpp"
#include "graph/properties.hpp"
#include "lowerbounds/dual_bound.hpp"
#include "solve/batch.hpp"
#include "steiner/moat.hpp"
#include "workload/spec.hpp"

namespace dsf {

namespace {

// One expanded source with provenance for error messages.
struct ExpandedSource {
  Workload workload;
  std::string path;  // as written in the manifest
};

}  // namespace

SuiteBaseline RunSuite(const SuiteManifest& manifest,
                       const SuiteRunOptions& options) {
  SuiteBaseline out;
  out.manifest = manifest.origin;
  out.seed = manifest.seed;
  out.timing_reps = manifest.timing_reps;
  out.latency_band = manifest.latency_band;
  out.latency_floor_ms = manifest.latency_floor_ms;
  out.solvers = manifest.solvers;

  // Expand every source. The workloads own the graphs the requests borrow,
  // so they must outlive the batch runs below.
  std::vector<ExpandedSource> sources;
  for (const SuiteSource& src : manifest.sources) {
    const std::string resolved = ResolveSuitePath(manifest, src);
    if (src.kind == SuiteSource::Kind::kOptionalStp) {
      std::ifstream probe(resolved);
      if (!probe) {
        out.skipped_sources.push_back(src.path);
        continue;
      }
    }
    ExpandedSource expanded;
    expanded.path = src.path;
    try {
      expanded.workload = LoadWorkload(resolved);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(manifest.origin + ":" +
                               std::to_string(src.line) + ": source '" +
                               src.path + "': " + e.what());
    }
    sources.push_back(std::move(expanded));
  }

  // Case names must be suite-unique: cells are keyed (solver, case,
  // instance), and a silent collision would make the baseline diff compare
  // unrelated measurements.
  std::set<std::string> case_names;
  for (const ExpandedSource& src : sources) {
    for (const WorkloadCase& wc : src.workload.cases) {
      if (!case_names.insert(wc.name).second) {
        throw std::runtime_error(
            manifest.origin + ": duplicate case name '" + wc.name +
            "' across suite sources; disambiguate with 'as <name>'");
      }
    }
  }

  // Flatten the matrix in baseline order (solver-major, then source /
  // case / instance declaration order) and derive the per-cell seeds. The
  // seed belongs to the (case, instance), not to the cell: every solver on
  // the k-th instance replays DeriveSeed(suite seed, k), so adding a roster
  // entry reshuffles no other cell, and dist-rand(reps=2N) re-runs the N
  // repetitions of dist-rand(reps=N) before its extra ones.
  struct CellRef {
    const WorkloadCase* wc = nullptr;
    const WorkloadInstance* inst = nullptr;
  };
  std::vector<CellRef> refs;
  std::vector<SolveRequest> requests;
  for (const std::string& solver : manifest.solvers) {
    std::uint64_t instance_index = 0;
    for (const ExpandedSource& src : sources) {
      for (const WorkloadCase& wc : src.workload.cases) {
        for (const WorkloadInstance& inst : wc.instances) {
          SolveRequest req;
          req.solver = solver;
          req.graph = &wc.graph;
          req.use_cr = inst.use_cr;
          if (inst.use_cr) {
            req.cr = inst.cr;
          } else {
            req.ic = inst.ic;
          }
          req.seed = DeriveSeed(manifest.seed, instance_index++);
          requests.push_back(std::move(req));
          refs.push_back({&wc, &inst});
        }
      }
    }
  }

  // The dual bound is per (case, instance) — identical across solvers — so
  // compute it once for the first solver's stripe and reuse.
  const std::size_t stripe =
      manifest.solvers.empty() ? 0 : requests.size() / manifest.solvers.size();
  std::vector<Fixed> duals(stripe, 0);
  for (std::size_t i = 0; i < stripe; ++i) {
    const CellRef& ref = refs[i];
    const IcInstance ic =
        ref.inst->use_cr ? CrToIc(ref.inst->cr) : ref.inst->ic;
    duals[i] = DualLowerBound(ref.wc->graph, ic);
  }

  // master_seed stays 0: the explicit per-request seeds above must survive
  // into every repetition, or rep 2's cells would not replay rep 0's runs.
  BatchEngine engine(BatchOptions{options.threads, 0});
  std::vector<SolveResult> first;
  std::vector<std::vector<double>> wall_ms(requests.size());
  for (int rep = 0; rep < manifest.timing_reps; ++rep) {
    std::vector<SolveResult> results = engine.Run(requests);
    for (std::size_t i = 0; i < results.size(); ++i) {
      wall_ms[i].push_back(results[i].wall_ms);
    }
    if (rep == 0) {
      first = std::move(results);
    } else {
      // Cross-rep determinism is what licenses the exact quality diff; a
      // mismatch here means a solver broke its seed contract.
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].weight != first[i].weight ||
            results[i].forest != first[i].forest) {
          throw std::runtime_error(
              "suite: solver '" + requests[i].solver +
              "' is not deterministic across repetitions on case '" +
              refs[i].wc->name + "' instance '" + refs[i].inst->name + "'");
        }
      }
    }
  }

  out.cells.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CellRef& ref = refs[i];
    const SolveResult& res = first[i];
    SuiteCell cell;
    cell.solver = requests[i].solver;
    cell.case_name = ref.wc->name;
    cell.instance = ref.inst->name;
    cell.source = ref.wc->source;
    cell.n = ref.wc->graph.NumNodes();
    cell.m = ref.wc->graph.NumEdges();
    // After the timed reps: a distributed solver warms this memo itself, so
    // filling it earlier would shift that solver's first-rep timing.
    const GraphParameters& params = CachedParameters(ref.wc->graph);
    cell.D = params.unweighted_diameter;
    cell.s = params.shortest_path_diameter;
    cell.cost = res.weight + options.inject_cost_delta;
    cell.feasible = res.feasible;
    cell.dual_lb_fixed = duals[i % (stripe == 0 ? 1 : stripe)];
    if (cell.dual_lb_fixed > 0) {
      cell.ratio = static_cast<double>(cell.cost) /
                   static_cast<double>(FixedToReal(cell.dual_lb_fixed));
    }
    cell.rounds = res.stats.rounds;
    cell.charged_rounds = res.stats.charged_rounds;
    cell.messages = res.stats.messages;
    cell.phases = res.phases;
    std::sort(wall_ms[i].begin(), wall_ms[i].end());
    cell.p50_ms = PercentileOfSorted(wall_ms[i], 0.5);
    cell.p95_ms = PercentileOfSorted(wall_ms[i], 0.95) + options.inject_p95_ms;
    out.cells.push_back(std::move(cell));
  }
  return out;
}

}  // namespace dsf
