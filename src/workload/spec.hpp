// Workload specifications: the `.dsf` scenario grammar, its sweep
// expansion, and the bridge to the solver engine.
//
// A workload file is a sequence of *case blocks*. Each block names one
// graph source and carries any number of instances; `sweep` axes expand
// into a cross-product of concrete cases. Line-oriented text; `#` starts a
// comment; blank lines are ignored:
//
//   seed <N>                  # workload-level master seed, >= 1 (default
//                             #   1; the CLI's --seed overrides it)
//   as <spec> [<spec> ...]    # default solver list of the workload:
//                             #   registry names or parameterized specs like
//                             #   portfolio(roster=gw-moat+greedy-merge,
//                             #   mode=first); the CLI's --solvers overrides
//                             #   it, absent both every solver runs
//
//   # graph sources — each opens a new case block:
//   graph <n>                 # hand-written topology; nodes are 0..n-1
//   edge <u> <v> <w>          #   undirected, weight >= 1, no duplicates
//   generate <family> [k=v ...] [as <name>]   # registry generator
//   import stp <path> [as <name>]             # SteinLib .stp file
//   import dimacs <path> [as <name>]          # DIMACS graph file
//                             # (paths resolve relative to the spec file)
//
//   sweep <param> <v1> [v2 ...]
//                             # after `generate`: sweep a generator param;
//                             # after `sample`: sweep a sampler param.
//                             # Multiple axes expand to the cross-product.
//
//   # instances of the current case block:
//   ic <name>                 # begins a DSF-IC instance (Definition 2.2)
//   terminal <v> <label>      #   terminal with label >= 1
//   cr <name>                 # begins a DSF-CR instance (Definition 2.1)
//   pair <u> <v>              #   symmetric connection request
//   sample <sampler> <name> [k=v ...]          # registry sampler
//   churn <name> <path> [steps=N]              # replay a saved churn trace
//                             # (workload/churn.*): the instance is the
//                             # trace's state after N steps (default 0, the
//                             # base population); the trace's node count
//                             # must equal the case's n. Paths resolve
//                             # relative to the spec file, like imports.
//
// A SteinLib import whose file carries terminals contributes an implicit
// leading instance named "terminals". Instance names must be unique within
// a case block; expanded case names (base name + swept-param suffix) must
// be unique within the workload — disambiguate with `as <name>`.
//
// `ParseWorkloadSpec` rejects malformed input with `origin:line` errors;
// `ExpandWorkload` materializes graphs and instances deterministically from
// the workload seed (same spec + same seed -> bit-identical workload).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "solve/solver.hpp"
#include "workload/samplers.hpp"

namespace dsf {

// One `sweep` axis: every value is validated against the owning schema at
// parse time; expansion substitutes them in declaration order.
struct SweepAxis {
  std::string param;
  std::vector<std::string> values;
  int line = 0;
};

// Raw parameters of a `generate` or `sample` directive.
struct RawParams {
  std::vector<std::pair<std::string, std::string>> fixed;
  std::vector<SweepAxis> sweeps;
};

struct InstanceSpec {
  enum class Kind { kExplicitIc, kExplicitCr, kSample, kChurn };
  Kind kind = Kind::kExplicitIc;
  std::string name;
  int line = 0;
  // kExplicitIc / kExplicitCr (node ranges are checked at expansion time —
  // a generated graph's n is unknown while parsing):
  std::vector<std::pair<NodeId, Label>> terminals;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  // kSample:
  std::string sampler;
  RawParams params;
  // kChurn: trace file (resolved against WorkloadSpec::base_dir) and the
  // number of steps to replay before materializing the state.
  std::string path;
  int churn_steps = 0;
};

struct CaseSpec {
  enum class Kind { kExplicit, kGenerate, kImportStp, kImportDimacs };
  Kind kind = Kind::kExplicit;
  std::string name;  // family / file stem, or the `as` alias
  int line = 0;
  // kExplicit:
  long long n = -1;
  std::vector<Edge> edges;
  // kGenerate:
  std::string family;
  RawParams params;
  // kImport*:
  std::string path;  // as written; resolved against WorkloadSpec::base_dir
  std::vector<InstanceSpec> instances;
};

struct WorkloadSpec {
  std::string origin;    // for error messages
  std::string base_dir;  // directory import paths resolve against
  std::uint64_t seed = 1;
  // Solver specs of the `as` directive, validated at parse time; empty when
  // the workload does not pick its own solvers.
  std::vector<std::string> solvers;
  std::vector<CaseSpec> cases;
};

WorkloadSpec ParseWorkloadSpec(std::istream& in, const std::string& origin);

// Reads and parses `path` (sets base_dir to its directory). A path ending
// in ".stp" is loaded directly through the SteinLib importer as a
// single-case spec. Throws std::runtime_error when unreadable.
WorkloadSpec LoadWorkloadSpec(const std::string& path);

// `path` (an import or churn path as written) joined onto the spec's
// base_dir; absolute paths pass through.
std::string ResolveSpecPath(const WorkloadSpec& spec, const std::string& path);

// --- expansion ---------------------------------------------------------------

// One concrete topology with its instances.
struct WorkloadCase {
  std::string name;    // base name + "[p=v,...]" suffix for swept params
  std::string source;  // e.g. "generate er", "graph", "import stp tiny.stp"
  Graph graph;         // finalized
  std::vector<WorkloadInstance> instances;
};

struct Workload {
  std::uint64_t seed = 1;
  std::vector<WorkloadCase> cases;
};

// Cross-product expansion. Deterministic given (spec, spec.seed): expanded
// case i derives its graph and sampler seeds from DeriveSeed(seed, i), so
// the workload is independent of solver selection and thread counts.
// Throws std::runtime_error (origin:line where attributable) on sampler /
// generator failures, out-of-range explicit instances, empty cases, and
// duplicate expanded case names.
Workload ExpandWorkload(const WorkloadSpec& spec);

// Parse + expand in one step.
Workload LoadWorkload(const std::string& path);

// The instance x solver request matrix over an expanded workload, in
// solver-major order. Requests borrow the workload's graphs — the workload
// must outlive them. `base` supplies the options every request copies.
struct RequestMatrix {
  std::vector<SolveRequest> requests;
  // Parallel to `requests`: indices into workload.cases and .instances.
  std::vector<int> case_index;
  std::vector<int> instance_index;
};
RequestMatrix BuildRequests(const Workload& workload,
                            std::span<const std::string> solvers,
                            const SolveOptions& base);

}  // namespace dsf
