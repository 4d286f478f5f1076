// `dsf` — command-line front end of the solver engine (DESIGN.md §3, §4).
//
// Loads a workload file (workload/spec.hpp: hand-written graphs, registry
// generators with sweep axes, SteinLib/DIMACS imports — each with named or
// sampled IC/CR instances), expands it into concrete cases, builds the
// case × instance × solver request matrix, executes it on the BatchEngine,
// and emits one JSON document with per-request results and batch
// aggregates. Exit status is 0 iff every output was feasible.
//
// The `serve`, `shard-router`, and `client` subcommands front the resident
// service layer (src/serve/, DESIGN.md §5): a persistent socket server with
// a canonical-hash result cache, a fault-tolerant router spreading requests
// over several such servers, and a line-protocol client for both. The
// `suite` subcommand runs the benchmark wall (src/suite/, DESIGN.md §9):
// manifest-driven corpus, per-solver baselines, and regression gating.
//
//   dsf --scenario FILE [--solvers all|spec,spec,...] [--seed N]
//       [--threads N] [--deadline-ms N] [--reference] [--no-prune]
//       [--json FILE]
//   dsf serve [--port N] [--host A] [--threads N] [--cache N]
//       [--batch-max N] [--max-pending N] [--deadline-ms N]
//       [--send-timeout-ms N] [--recv-timeout-ms N] [--fault SPEC]
//   dsf shard-router --backend HOST:PORT [--backend HOST:PORT ...]
//       [--port N] [--host A] [--retries N] [--backoff-ms N]
//       [--probe-interval-ms N] [--hot-cache N] [--fault SPEC]
//   dsf client (--scenario FILE | --generate SPEC [--instance SPEC]
//       | --stats | --ping) [--port N] [--host A] [--solvers LIST]
//       [--seed N] [--deadline-ms N] [--no-prune] [--repeat N]
//       [--retries N] [--backoff-ms N]
//       [--json FILE] [--revise KEY [--delta SPEC] [--revise-mode M]]
//   dsf suite [--manifest FILE] [--baseline FILE] [--record | --check]
//       [--out FILE] [--threads N] [--emit-corpus DIR]
//       [--inject-cost N] [--inject-p95-ms X]
//   dsf --list-solvers
//   dsf --list-generators
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/json.hpp"
#include "serve/client.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "solve/batch.hpp"
#include "solve/solver.hpp"
#include "solve/solver_spec.hpp"
#include "steiner/exact.hpp"
#include "suite/baseline.hpp"
#include "suite/check.hpp"
#include "suite/corpus.hpp"
#include "suite/manifest.hpp"
#include "suite/runner.hpp"
#include "workload/generators.hpp"
#include "workload/samplers.hpp"
#include "workload/spec.hpp"

namespace dsf {
namespace {

struct CliArgs {
  std::string scenario_path;
  std::vector<std::string> solvers;  // empty => all registered
  std::uint64_t seed = 0;
  bool seed_set = false;  // --seed given: overrides the scenario-level seed
  int threads = 1;
  int deadline_ms = 0;  // anytime per-unit deadline; 0 = none
  bool reference = false;
  bool prune = true;
  std::string json_path;  // empty => stdout
  bool list_solvers = false;
  bool list_generators = false;
  bool help = false;
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: dsf --scenario FILE [options]\n"
               "       dsf serve [--port N] [--threads N] [--cache N]\n"
               "       dsf shard-router --backend HOST:PORT"
               " [--backend HOST:PORT ...]\n"
               "       dsf client (--scenario FILE | --generate SPEC |"
               " --stats | --ping)\n"
               "                  [--port N] [--repeat N] [options]\n"
               "       dsf suite [--manifest FILE] [--record | --check]"
               " (see dsf suite -h)\n"
               "       dsf --list-solvers\n"
               "       dsf --list-generators\n"
               "\n"
               "options:\n"
               "  --scenario FILE     workload file (graph sources, sweeps,"
               " ic/cr/sampled\n"
               "                      instances); a bare SteinLib .stp file"
               " also works\n"
               "  --solvers LIST      comma-separated solver specs, or 'all'"
               " (default when\n"
               "                      the scenario has no 'as' directive);"
               " a spec is a\n"
               "                      registry name, gw-moat(eps=X),"
               " dist-det(eps=X),\n"
               "                      dist-rand(reps=N), or portfolio("
               "roster=a+b+c,\n"
               "                      mode=all|first[,deadline_ms=N])\n"
               "  --seed N            overrides the scenario-level seed"
               " (workload expansion\n"
               "                      and request master seed)\n"
               "  --threads N         batch executors (0 = hardware"
               " concurrency)\n"
               "  --deadline-ms N     anytime deadline per unit: return the"
               " best feasible\n"
               "                      forest found within N wall ms\n"
               "  --reference         also solve exactly, report ratios"
               " (small instances)\n"
               "  --no-prune          skip minimal-subforest pruning\n"
               "  --json FILE         write the JSON document to FILE"
               " (default stdout)\n"
               "  --list-solvers      print the solver registry and exit\n"
               "  --list-generators   print the generator and sampler"
               " registries with\n"
               "                      their parameter schemas and exit\n");
}

// Strict numeric parsing: trailing garbage and overflow are usage errors,
// not silently-zero values (atoi("x2") == 0 would flip semantics).
bool ParseI64(const char* flag, const char* v, long long& out,
              std::string& error) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    error = std::string("invalid value for ") + flag + ": '" + v + "'";
    return false;
  }
  out = value;
  return true;
}

bool ParseU64(const char* flag, const char* v, std::uint64_t& out,
              std::string& error) {
  char* end = nullptr;
  errno = 0;
  if (v[0] == '-') {
    error = std::string("invalid value for ") + flag + ": '" + v + "'";
    return false;
  }
  const unsigned long long value = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) {
    error = std::string("invalid value for ") + flag + ": '" + v + "'";
    return false;
  }
  out = value;
  return true;
}

bool ParseDouble(const char* flag, const char* v, double& out,
                 std::string& error) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE) {
    error = std::string("invalid value for ") + flag + ": '" + v + "'";
    return false;
  }
  out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, CliArgs& args, std::string& error) {
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      error = std::string("missing value for ") + argv[i];
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      args.help = true;
    } else if (flag == "--list-solvers") {
      args.list_solvers = true;
    } else if (flag == "--list-generators") {
      args.list_generators = true;
    } else if (flag == "--scenario") {
      const char* v = need_value(i);
      if (!v) return false;
      args.scenario_path = v;
    } else if (flag == "--solvers") {
      const char* v = need_value(i);
      if (!v) return false;
      if (std::strcmp(v, "all") != 0) {
        // Paren-aware split: portfolio(...) specs carry commas of their own.
        for (std::string& spec : SplitSolverList(v)) {
          args.solvers.push_back(std::move(spec));
        }
      }
    } else if (flag == "--seed") {
      const char* v = need_value(i);
      if (!v || !ParseU64("--seed", v, args.seed, error)) return false;
      // 0 is BatchEngine's "keep per-request seeds" sentinel; accepting it
      // would silently stop deriving per-request seeds.
      if (args.seed == 0) {
        error = "--seed must be >= 1";
        return false;
      }
      args.seed_set = true;
    } else if (flag == "--threads") {
      const char* v = need_value(i);
      long long threads = 0;
      if (!v || !ParseI64("--threads", v, threads, error)) return false;
      if (threads < 0 || threads > 1024) {
        error = "--threads must be in [0, 1024]";
        return false;
      }
      args.threads = static_cast<int>(threads);
    } else if (flag == "--deadline-ms") {
      const char* v = need_value(i);
      long long ms = 0;
      if (!v || !ParseI64("--deadline-ms", v, ms, error)) return false;
      if (ms < 0 || ms > 86'400'000) {
        error = "--deadline-ms must be in [0, 86400000]";
        return false;
      }
      args.deadline_ms = static_cast<int>(ms);
    } else if (flag == "--reference") {
      args.reference = true;
    } else if (flag == "--no-prune") {
      args.prune = false;
    } else if (flag == "--json") {
      const char* v = need_value(i);
      if (!v) return false;
      args.json_path = v;
    } else {
      error = "unknown flag: " + flag;
      return false;
    }
  }
  return true;
}

void WriteResult(JsonWriter& json, const WorkloadCase& wc,
                 const WorkloadInstance& inst, const SolveResult& r) {
  json.BeginObject();
  json.Key("solver");
  json.String(r.solver);
  json.Key("case");
  json.String(wc.name);
  json.Key("instance");
  json.String(inst.name);
  json.Key("input");
  json.String(inst.use_cr ? "cr" : "ic");
  json.Key("weight");
  json.Int(static_cast<long long>(r.weight));
  json.Key("feasible");
  json.Bool(r.feasible);
  if (r.cancelled) {
    json.Key("cancelled");
    json.Bool(true);
  }
  json.Key("edges");
  json.BeginArray();
  for (const EdgeId e : r.forest) json.Int(e);
  json.EndArray();
  // kInfWeight marks an unreachable reference (unsatisfiable instance);
  // emitting the sentinel as a number would be garbage.
  if (r.reference_weight >= 0 && r.reference_weight < kInfWeight) {
    json.Key("reference_weight");
    json.Int(static_cast<long long>(r.reference_weight));
    json.Key("approx_ratio");
    json.Double(r.approx_ratio);
  }
  if (r.dual_lower_bound > 0) {
    json.Key("dual_lower_bound");
    json.Double(FixedToReal(r.dual_lower_bound));
  }
  json.Key("rounds");
  json.Int(r.stats.rounds);
  json.Key("charged_rounds");
  json.Int(r.stats.charged_rounds);
  json.Key("messages");
  json.Int(r.stats.messages);
  json.Key("total_bits");
  json.Int(r.stats.total_bits);
  if (inst.use_cr) {
    json.Key("transform_rounds");
    json.Int(r.transform_rounds);
    json.Key("transform_messages");
    json.Int(r.transform_messages);
    json.Key("transform_bits");
    json.Int(r.transform_bits);
  }
  json.Key("wall_ms");
  json.Double(r.wall_ms);
  json.EndObject();
}

int RunCli(const CliArgs& args) {
  WorkloadSpec spec = LoadWorkloadSpec(args.scenario_path);
  if (args.seed_set) spec.seed = args.seed;
  const Workload workload = ExpandWorkload(spec);

  // Solver selection: --solvers beats the scenario's `as` directive beats
  // "every registered solver". Specs are canonicalized up front so the JSON
  // lists the same strings the results (and the serve cache key) carry.
  std::vector<std::string> solver_names =
      args.solvers.empty() ? spec.solvers : args.solvers;
  if (solver_names.empty()) {
    for (const auto name : SolverRegistry::Names()) {
      solver_names.emplace_back(name);
    }
  }
  for (auto& name : solver_names) {
    name = ParseSolverSpec(name).Canonical();  // fail fast on bad specs
  }

  SolveOptions base;
  base.prune = args.prune;
  base.validate = true;
  base.deadline_ms = args.deadline_ms;
  RequestMatrix matrix = BuildRequests(workload, solver_names, base);

  BatchOptions bopt;
  bopt.threads = args.threads;
  bopt.master_seed = spec.seed;
  BatchEngine engine(bopt);
  std::vector<SolveResult> results = engine.Run(matrix.requests);
  const BatchStats& stats = engine.LastStats();

  if (args.reference) {
    // The exact reference depends only on the (case, instance) cell, so it
    // is solved once per cell instead of once per cell x solver.
    std::vector<std::vector<Weight>> reference(workload.cases.size());
    for (std::size_t c = 0; c < workload.cases.size(); ++c) {
      const WorkloadCase& wc = workload.cases[c];
      reference[c].reserve(wc.instances.size());
      for (const WorkloadInstance& inst : wc.instances) {
        reference[c].push_back(ExactSteinerForestWeight(
            wc.graph, inst.use_cr ? CrToIc(inst.cr) : inst.ic));
      }
    }
    for (std::size_t i = 0; i < results.size(); ++i) {
      SolveResult& r = results[i];
      r.reference_weight =
          reference[static_cast<std::size_t>(matrix.case_index[i])]
                   [static_cast<std::size_t>(matrix.instance_index[i])];
      if (r.reference_weight > 0 && r.reference_weight < kInfWeight) {
        r.approx_ratio = static_cast<double>(r.weight) /
                         static_cast<double>(r.reference_weight);
      } else if (r.reference_weight == 0 && r.weight == 0) {
        r.approx_ratio = 1.0;
      }
    }
  }

  std::ofstream file;
  if (!args.json_path.empty()) {
    file.open(args.json_path);
    if (!file) {
      std::fprintf(stderr, "dsf: cannot write %s\n", args.json_path.c_str());
      return 2;
    }
  }
  std::ostream& out = args.json_path.empty() ? std::cout : file;

  JsonWriter json(out);
  json.BeginObject();
  json.Key("scenario");
  json.String(args.scenario_path);
  json.Key("seed");
  json.UInt(spec.seed);
  json.Key("cases");
  json.BeginArray();
  for (const WorkloadCase& wc : workload.cases) {
    json.BeginObject();
    json.Key("name");
    json.String(wc.name);
    json.Key("source");
    json.String(wc.source);
    json.Key("n");
    json.Int(wc.graph.NumNodes());
    json.Key("m");
    json.Int(wc.graph.NumEdges());
    json.Key("total_weight");
    json.Int(static_cast<long long>(wc.graph.TotalWeight()));
    json.Key("instances");
    json.Int(static_cast<long long>(wc.instances.size()));
    json.EndObject();
  }
  json.EndArray();
  json.Key("solvers");
  json.BeginArray();
  for (const auto& name : solver_names) json.String(name);
  json.EndArray();
  json.Key("results");
  json.BeginArray();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadCase& wc =
        workload.cases[static_cast<std::size_t>(matrix.case_index[i])];
    const WorkloadInstance& inst =
        wc.instances[static_cast<std::size_t>(matrix.instance_index[i])];
    WriteResult(json, wc, inst, results[i]);
  }
  json.EndArray();
  json.Key("batch");
  json.BeginObject();
  json.Key("requests");
  json.Int(stats.requests);
  json.Key("threads");
  json.Int(engine.Threads());
  json.Key("infeasible");
  json.Int(stats.infeasible);
  json.Key("wall_ms");
  json.Double(stats.wall_ms);
  json.Key("instances_per_sec");
  json.Double(stats.instances_per_sec);
  json.Key("p50_ms");
  json.Double(stats.p50_ms);
  json.Key("p95_ms");
  json.Double(stats.p95_ms);
  json.EndObject();
  json.EndObject();
  out << "\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "dsf: error writing JSON output%s%s\n",
                 args.json_path.empty() ? "" : " to ",
                 args.json_path.c_str());
    return 2;
  }

  if (!args.json_path.empty()) {
    // The solver column fits the longest canonical spec of the run
    // (`gw-moat(eps=0.25)`, portfolio specs), so no row shifts the table.
    int solver_width = 10;
    for (const auto& r : results) {
      solver_width = std::max(solver_width, static_cast<int>(r.solver.size()));
    }
    std::printf("%-*s  %-18s %-14s %-5s %10s %8s %9s %8s\n", solver_width,
                "solver", "case", "instance", "input", "weight", "ok",
                "rounds", "wall_ms");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      const WorkloadCase& wc =
          workload.cases[static_cast<std::size_t>(matrix.case_index[i])];
      const WorkloadInstance& inst =
          wc.instances[static_cast<std::size_t>(matrix.instance_index[i])];
      std::printf("%-*s  %-18s %-14s %-5s %10lld %8s %9ld %8.2f\n",
                  solver_width, r.solver.c_str(), wc.name.c_str(),
                  inst.name.c_str(),
                  inst.use_cr ? "cr" : "ic",
                  static_cast<long long>(r.weight),
                  r.feasible ? "yes" : "NO", r.stats.rounds, r.wall_ms);
    }
    std::printf("batch: %d requests, %d threads, %.1f inst/s, p50 %.2f ms, "
                "p95 %.2f ms -> %s\n",
                stats.requests, engine.Threads(), stats.instances_per_sec,
                stats.p50_ms, stats.p95_ms, args.json_path.c_str());
  }
  return stats.infeasible == 0 ? 0 : 1;
}

void PrintServeUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: dsf serve [options]\n"
               "\n"
               "options:\n"
               "  --port N          listen port (default 0 = ephemeral;"
               " the bound port is\n"
               "                    printed as a JSON line on stdout)\n"
               "  --host A          bind address (default 127.0.0.1)\n"
               "  --threads N       batch engine executors (0 = hardware"
               " concurrency)\n"
               "  --cache N         result cache capacity in entries"
               " (default 4096; 0 disables)\n"
               "  --cache-shards N  cache shards (default 8)\n"
               "  --batch-max N     max units per dispatched batch"
               " (default 32)\n"
               "  --max-pending N   admission bound on queued + running"
               " units (default 1024)\n"
               "  --deadline-ms N   cap every unit's anytime deadline at N"
               " wall ms\n"
               "                    (default 0 = uncapped); requests asking"
               " for less keep\n"
               "                    their tighter deadline\n"
               "  --send-timeout-ms N  per-connection send deadline"
               " (default 30000; 0 disables)\n"
               "  --recv-timeout-ms N  per-connection receive deadline"
               " (default 300000; 0 disables)\n"
               "  --fault SPEC      chaos hook: exit_after=N, drop_every=N,\n"
               "                    truncate_every=N, delay_every=N,"
               " delay_ms=D\n"
               "                    (DSF_FAULT env is the fallback)\n"
               "\n"
               "SIGINT / SIGTERM drain the queue and exit 0.\n");
}

void PrintClientUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: dsf client (--scenario FILE | --generate SPEC"
               " [--instance SPEC]\n"
               "                   | --stats | --ping) [options]\n"
               "\n"
               "options:\n"
               "  --port N          server port (required)\n"
               "  --host A          server address (default 127.0.0.1)\n"
               "  --scenario FILE   send FILE's workload text inline"
               " (imports excluded)\n"
               "  --generate SPEC   named generator spec, e.g. 'grid rows=4"
               " cols=4'\n"
               "  --instance SPEC   sampler spec for --generate, e.g."
               " 'random-ic k=2 tpc=2'\n"
               "  --stats           request the /stats counters\n"
               "  --ping            liveness probe\n"
               "  --revise KEY      op=revise against the cached base result\n"
               "                    named by KEY (32-hex \"key\" of a prior"
               " response);\n"
               "                    the solve framing describes the BASE"
               " instance\n"
               "  --delta SPEC      edits for --revise: add=U-V rm=U-V"
               " (CR pairs),\n"
               "                    addt=V:L rmt=V (IC terminals);"
               " comma/space\n"
               "                    separated, default empty\n"
               "  --revise-mode M   warm (default) | exact-match\n"
               "  --solvers LIST    comma-separated solver specs (default"
               " all; parameterized\n"
               "                    specs such as dist-det(eps=0.5)"
               " allowed)\n"
               "  --seed N          spec-level seed override (>= 1)\n"
               "  --deadline-ms N   per-unit anytime deadline forwarded to"
               " the server\n"
               "  --no-prune        skip minimal-subforest pruning\n"
               "  --repeat N        send the same solve N times (duplicate"
               " burst)\n"
               "  --retries N       connect retries (default 0; exponential"
               " backoff)\n"
               "  --backoff-ms N    base retry backoff (default 50)\n"
               "  --json FILE       also write the response lines to FILE\n");
}

int RunServeCommand(int argc, char** argv) {
  ServeOptions options;
  std::string error;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        error = "missing value for " + flag;
        return nullptr;
      }
      return argv[++i];
    };
    long long value = 0;
    if (flag == "--help" || flag == "-h") {
      PrintServeUsage(stdout);
      return 0;
    } else if (flag == "--port") {
      const char* v = need_value();
      if (!v || !ParseI64("--port", v, value, error)) break;
      if (value < 0 || value > 65535) {
        error = "--port must be in [0, 65535]";
        break;
      }
      options.port = static_cast<int>(value);
    } else if (flag == "--host") {
      const char* v = need_value();
      if (!v) break;
      options.host = v;
    } else if (flag == "--threads") {
      const char* v = need_value();
      if (!v || !ParseI64("--threads", v, value, error)) break;
      if (value < 0 || value > 1024) {
        error = "--threads must be in [0, 1024]";
        break;
      }
      options.threads = static_cast<int>(value);
    } else if (flag == "--cache") {
      const char* v = need_value();
      if (!v || !ParseI64("--cache", v, value, error)) break;
      if (value < 0 || value > (1LL << 30)) {
        error = "--cache must be in [0, 2^30]";
        break;
      }
      options.cache_entries = static_cast<std::size_t>(value);
    } else if (flag == "--cache-shards") {
      const char* v = need_value();
      if (!v || !ParseI64("--cache-shards", v, value, error)) break;
      if (value < 1 || value > 64) {
        error = "--cache-shards must be in [1, 64]";
        break;
      }
      options.cache_shards = static_cast<int>(value);
    } else if (flag == "--batch-max") {
      const char* v = need_value();
      if (!v || !ParseI64("--batch-max", v, value, error)) break;
      if (value < 1 || value > 4096) {
        error = "--batch-max must be in [1, 4096]";
        break;
      }
      options.batch_max = static_cast<int>(value);
    } else if (flag == "--max-pending") {
      const char* v = need_value();
      if (!v || !ParseI64("--max-pending", v, value, error)) break;
      if (value < 1 || value > (1 << 24)) {
        error = "--max-pending must be in [1, 2^24]";
        break;
      }
      options.max_pending = static_cast<int>(value);
    } else if (flag == "--deadline-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--deadline-ms", v, value, error)) break;
      if (value < 0 || value > 86'400'000) {
        error = "--deadline-ms must be in [0, 86400000]";
        break;
      }
      options.deadline_ms = static_cast<int>(value);
    } else if (flag == "--send-timeout-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--send-timeout-ms", v, value, error)) break;
      if (value < 0 || value > 86'400'000) {
        error = "--send-timeout-ms must be in [0, 86400000]";
        break;
      }
      options.send_timeout_ms = static_cast<int>(value);
    } else if (flag == "--recv-timeout-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--recv-timeout-ms", v, value, error)) break;
      if (value < 0 || value > 86'400'000) {
        error = "--recv-timeout-ms must be in [0, 86400000]";
        break;
      }
      options.recv_timeout_ms = static_cast<int>(value);
    } else if (flag == "--fault") {
      const char* v = need_value();
      if (!v) break;
      options.fault_spec = v;
    } else {
      error = "unknown flag: " + flag;
      break;
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "dsf serve: %s\n", error.c_str());
    PrintServeUsage(stderr);
    return 2;
  }
  // Env fallback: chaos harnesses that cannot edit the command line (CI
  // matrix entries, wrapper scripts) arm the fault hook via DSF_FAULT.
  if (options.fault_spec.empty()) {
    if (const char* env = std::getenv("DSF_FAULT")) options.fault_spec = env;
  }
  return RunServe(options);
}

int RunClientCommand(int argc, char** argv) {
  ClientArgs args;
  bool port_set = false;
  std::string error;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        error = "missing value for " + flag;
        return nullptr;
      }
      return argv[++i];
    };
    long long value = 0;
    if (flag == "--help" || flag == "-h") {
      PrintClientUsage(stdout);
      return 0;
    } else if (flag == "--port") {
      const char* v = need_value();
      if (!v || !ParseI64("--port", v, value, error)) break;
      if (value < 1 || value > 65535) {
        error = "--port must be in [1, 65535]";
        break;
      }
      args.port = static_cast<int>(value);
      port_set = true;
    } else if (flag == "--host") {
      const char* v = need_value();
      if (!v) break;
      args.host = v;
    } else if (flag == "--scenario") {
      const char* v = need_value();
      if (!v) break;
      args.scenario_path = v;
    } else if (flag == "--generate") {
      const char* v = need_value();
      if (!v) break;
      args.generate = v;
    } else if (flag == "--instance") {
      const char* v = need_value();
      if (!v) break;
      args.instance = v;
    } else if (flag == "--stats") {
      args.stats = true;
    } else if (flag == "--ping") {
      args.ping = true;
    } else if (flag == "--revise") {
      const char* v = need_value();
      if (!v) break;
      args.revise_base = v;
    } else if (flag == "--delta") {
      const char* v = need_value();
      if (!v) break;
      args.delta = v;
    } else if (flag == "--revise-mode") {
      const char* v = need_value();
      if (!v) break;
      if (std::strcmp(v, "warm") != 0 && std::strcmp(v, "exact-match") != 0) {
        error = "--revise-mode must be warm or exact-match";
        break;
      }
      args.revise_mode = v;
    } else if (flag == "--solvers") {
      const char* v = need_value();
      if (!v) break;
      if (std::strcmp(v, "all") != 0) args.solvers = v;
    } else if (flag == "--seed") {
      const char* v = need_value();
      if (!v || !ParseU64("--seed", v, args.seed, error)) break;
      if (args.seed == 0) {
        error = "--seed must be >= 1";
        break;
      }
      args.seed_set = true;
    } else if (flag == "--deadline-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--deadline-ms", v, value, error)) break;
      if (value < 0 || value > 86'400'000) {
        error = "--deadline-ms must be in [0, 86400000]";
        break;
      }
      args.deadline_ms = static_cast<int>(value);
    } else if (flag == "--no-prune") {
      args.prune = false;
    } else if (flag == "--repeat") {
      const char* v = need_value();
      if (!v || !ParseI64("--repeat", v, value, error)) break;
      if (value < 1 || value > 1 << 20) {
        error = "--repeat must be in [1, 1048576]";
        break;
      }
      args.repeat = static_cast<int>(value);
    } else if (flag == "--retries") {
      const char* v = need_value();
      if (!v || !ParseI64("--retries", v, value, error)) break;
      if (value < 0 || value > 100) {
        error = "--retries must be in [0, 100]";
        break;
      }
      args.retry.retries = static_cast<int>(value);
    } else if (flag == "--backoff-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--backoff-ms", v, value, error)) break;
      if (value < 0 || value > 60'000) {
        error = "--backoff-ms must be in [0, 60000]";
        break;
      }
      args.retry.backoff_ms = static_cast<int>(value);
    } else if (flag == "--json") {
      const char* v = need_value();
      if (!v) break;
      args.json_path = v;
    } else {
      error = "unknown flag: " + flag;
      break;
    }
  }
  if (error.empty()) {
    const int modes = (!args.scenario_path.empty() ? 1 : 0) +
                      (!args.generate.empty() ? 1 : 0) +
                      (args.stats ? 1 : 0) + (args.ping ? 1 : 0);
    if (modes != 1) {
      error = "need exactly one of --scenario, --generate, --stats, --ping";
    } else if (!port_set) {
      error = "--port is required";
    } else if (!args.instance.empty() && args.generate.empty()) {
      error = "--instance needs --generate";
    } else if (!args.revise_base.empty() && (args.stats || args.ping)) {
      error = "--revise needs a solve framing (--scenario or --generate)";
    } else if ((!args.delta.empty() || !args.revise_mode.empty()) &&
               args.revise_base.empty()) {
      error = "--delta / --revise-mode need --revise";
    }
  }
  if (!error.empty()) {
    std::fprintf(stderr, "dsf client: %s\n", error.c_str());
    PrintClientUsage(stderr);
    return 2;
  }
  return RunClient(args);
}

void PrintRouterUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: dsf shard-router --backend HOST:PORT"
               " [--backend HOST:PORT ...] [options]\n"
               "\n"
               "options:\n"
               "  --backend H:P        one backend `dsf serve` endpoint"
               " (repeatable; >= 1)\n"
               "  --port N             listen port (default 0 = ephemeral)\n"
               "  --host A             bind address (default 127.0.0.1)\n"
               "  --retries N          attempts beyond the first per request"
               " (default 3)\n"
               "  --backoff-ms N       base retry backoff (default 50;"
               " exponential + jitter)\n"
               "  --ring-replicas N    virtual nodes per backend"
               " (default 64)\n"
               "  --probe-interval-ms N  health-probe cadence (default 250;"
               " 0 disables)\n"
               "  --probe-timeout-ms N   per-probe deadline (default 1000)\n"
               "  --connect-timeout-ms N upstream connect deadline"
               " (default 1000)\n"
               "  --upstream-timeout-ms N  upstream response deadline"
               " (default 60000)\n"
               "  --failures-to-down N   failures before a backend is marked"
               " down (default 1)\n"
               "  --successes-to-up N    consecutive probe successes to"
               " re-admit (default 2)\n"
               "  --hot-cache N        router-local response cache entries"
               " (default 512;\n"
               "                       0 disables)\n"
               "  --send-timeout-ms N  downstream send deadline"
               " (default 30000)\n"
               "  --recv-timeout-ms N  downstream receive deadline"
               " (default 300000)\n"
               "  --fault SPEC         chaos hook on the router's own"
               " listener\n"
               "\n"
               "SIGINT / SIGTERM drain in-flight requests and exit 0.\n");
}

int RunShardRouterCommand(int argc, char** argv) {
  RouterOptions options;
  std::string error;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        error = "missing value for " + flag;
        return nullptr;
      }
      return argv[++i];
    };
    long long value = 0;
    if (flag == "--help" || flag == "-h") {
      PrintRouterUsage(stdout);
      return 0;
    } else if (flag == "--backend") {
      const char* v = need_value();
      if (!v) break;
      try {
        options.backends.push_back(ParseBackendSpec(v));
      } catch (const std::exception& e) {
        error = e.what();
        break;
      }
    } else if (flag == "--port") {
      const char* v = need_value();
      if (!v || !ParseI64("--port", v, value, error)) break;
      if (value < 0 || value > 65535) {
        error = "--port must be in [0, 65535]";
        break;
      }
      options.port = static_cast<int>(value);
    } else if (flag == "--host") {
      const char* v = need_value();
      if (!v) break;
      options.host = v;
    } else if (flag == "--retries") {
      const char* v = need_value();
      if (!v || !ParseI64("--retries", v, value, error)) break;
      if (value < 0 || value > 100) {
        error = "--retries must be in [0, 100]";
        break;
      }
      options.retry.retries = static_cast<int>(value);
    } else if (flag == "--backoff-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--backoff-ms", v, value, error)) break;
      if (value < 0 || value > 60'000) {
        error = "--backoff-ms must be in [0, 60000]";
        break;
      }
      options.retry.backoff_ms = static_cast<int>(value);
    } else if (flag == "--ring-replicas") {
      const char* v = need_value();
      if (!v || !ParseI64("--ring-replicas", v, value, error)) break;
      if (value < 1 || value > 4096) {
        error = "--ring-replicas must be in [1, 4096]";
        break;
      }
      options.ring_replicas = static_cast<int>(value);
    } else if (flag == "--probe-interval-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--probe-interval-ms", v, value, error)) break;
      if (value < 0 || value > 3'600'000) {
        error = "--probe-interval-ms must be in [0, 3600000]";
        break;
      }
      options.probe_interval_ms = static_cast<int>(value);
    } else if (flag == "--probe-timeout-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--probe-timeout-ms", v, value, error)) break;
      if (value < 1 || value > 600'000) {
        error = "--probe-timeout-ms must be in [1, 600000]";
        break;
      }
      options.probe_timeout_ms = static_cast<int>(value);
    } else if (flag == "--connect-timeout-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--connect-timeout-ms", v, value, error)) break;
      if (value < 1 || value > 600'000) {
        error = "--connect-timeout-ms must be in [1, 600000]";
        break;
      }
      options.connect_timeout_ms = static_cast<int>(value);
    } else if (flag == "--upstream-timeout-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--upstream-timeout-ms", v, value, error)) break;
      if (value < 1 || value > 86'400'000) {
        error = "--upstream-timeout-ms must be in [1, 86400000]";
        break;
      }
      options.upstream_recv_timeout_ms = static_cast<int>(value);
    } else if (flag == "--failures-to-down") {
      const char* v = need_value();
      if (!v || !ParseI64("--failures-to-down", v, value, error)) break;
      if (value < 1 || value > 1000) {
        error = "--failures-to-down must be in [1, 1000]";
        break;
      }
      options.health.failures_to_down = static_cast<int>(value);
    } else if (flag == "--successes-to-up") {
      const char* v = need_value();
      if (!v || !ParseI64("--successes-to-up", v, value, error)) break;
      if (value < 1 || value > 1000) {
        error = "--successes-to-up must be in [1, 1000]";
        break;
      }
      options.health.successes_to_up = static_cast<int>(value);
    } else if (flag == "--hot-cache") {
      const char* v = need_value();
      if (!v || !ParseI64("--hot-cache", v, value, error)) break;
      if (value < 0 || value > (1LL << 30)) {
        error = "--hot-cache must be in [0, 2^30]";
        break;
      }
      options.hot_cache_entries = static_cast<std::size_t>(value);
    } else if (flag == "--send-timeout-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--send-timeout-ms", v, value, error)) break;
      if (value < 0 || value > 86'400'000) {
        error = "--send-timeout-ms must be in [0, 86400000]";
        break;
      }
      options.send_timeout_ms = static_cast<int>(value);
    } else if (flag == "--recv-timeout-ms") {
      const char* v = need_value();
      if (!v || !ParseI64("--recv-timeout-ms", v, value, error)) break;
      if (value < 0 || value > 86'400'000) {
        error = "--recv-timeout-ms must be in [0, 86400000]";
        break;
      }
      options.recv_timeout_ms = static_cast<int>(value);
    } else if (flag == "--fault") {
      const char* v = need_value();
      if (!v) break;
      options.fault_spec = v;
    } else {
      error = "unknown flag: " + flag;
      break;
    }
  }
  if (error.empty() && options.backends.empty()) {
    error = "at least one --backend HOST:PORT is required";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "dsf shard-router: %s\n", error.c_str());
    PrintRouterUsage(stderr);
    return 2;
  }
  if (options.fault_spec.empty()) {
    if (const char* env = std::getenv("DSF_FAULT")) options.fault_spec = env;
  }
  return RunShardRouter(options);
}

void PrintSuiteUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: dsf suite [--manifest FILE] [--record | --check |"
               " --emit-corpus DIR]\n"
               "                 [options]\n"
               "\n"
               "Runs the benchmark wall: every instance of the manifest"
               " against every\n"
               "solver of its roster, measuring cost, ratio vs the dual"
               " lower bound,\n"
               "rounds, messages, and p50/p95 latency per cell.\n"
               "\n"
               "options:\n"
               "  --manifest FILE     suite manifest (default\n"
               "                      scenarios/suite/manifest.dsf-suite)\n"
               "  --baseline FILE     committed baseline path (default\n"
               "                      bench/SUITE_baseline.json)\n"
               "  --record            write the fresh run to --baseline"
               " (regenerates the\n"
               "                      committed wall; do this deliberately)\n"
               "  --check             diff the fresh run against --baseline:"
               " quality exact,\n"
               "                      p95 banded; exit 1 with a regression"
               " table on drift\n"
               "  --out FILE          also write the fresh run's JSON to"
               " FILE\n"
               "  --threads N         batch executors (0 = hardware"
               " concurrency)\n"
               "  --emit-corpus DIR   write the deterministic instance corpus"
               " into DIR\n"
               "                      and exit (CI diffs it against"
               " scenarios/suite/)\n"
               "  --inject-cost N     test hook: add N to every cell's cost"
               " after measuring\n"
               "  --inject-p95-ms X   test hook: add X ms to every cell's"
               " p95\n"
               "\n"
               "With neither --record nor --check, the fresh baseline JSON"
               " goes to stdout\n"
               "(or --out).\n");
}

int RunSuiteCommand(int argc, char** argv) {
  std::string manifest_path = "scenarios/suite/manifest.dsf-suite";
  std::string baseline_path = "bench/SUITE_baseline.json";
  std::string out_path;
  std::string corpus_dir;
  bool record = false;
  bool check = false;
  SuiteRunOptions run_options;
  std::string error;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        error = "missing value for " + flag;
        return nullptr;
      }
      return argv[++i];
    };
    long long value = 0;
    if (flag == "--help" || flag == "-h") {
      PrintSuiteUsage(stdout);
      return 0;
    } else if (flag == "--manifest") {
      const char* v = need_value();
      if (!v) break;
      manifest_path = v;
    } else if (flag == "--baseline") {
      const char* v = need_value();
      if (!v) break;
      baseline_path = v;
    } else if (flag == "--out") {
      const char* v = need_value();
      if (!v) break;
      out_path = v;
    } else if (flag == "--record") {
      record = true;
    } else if (flag == "--check") {
      check = true;
    } else if (flag == "--emit-corpus") {
      const char* v = need_value();
      if (!v) break;
      corpus_dir = v;
    } else if (flag == "--threads") {
      const char* v = need_value();
      if (!v || !ParseI64("--threads", v, value, error)) break;
      if (value < 0 || value > 1024) {
        error = "--threads must be in [0, 1024]";
        break;
      }
      run_options.threads = static_cast<int>(value);
    } else if (flag == "--inject-cost") {
      const char* v = need_value();
      if (!v || !ParseI64("--inject-cost", v, value, error)) break;
      run_options.inject_cost_delta = value;
    } else if (flag == "--inject-p95-ms") {
      const char* v = need_value();
      double ms = 0.0;
      if (!v || !ParseDouble("--inject-p95-ms", v, ms, error)) break;
      if (ms < 0.0) {
        error = "--inject-p95-ms must be >= 0";
        break;
      }
      run_options.inject_p95_ms = ms;
    } else {
      error = "unknown flag: " + flag;
      break;
    }
  }
  if (error.empty() && record && check) {
    error = "--record and --check are mutually exclusive";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "dsf suite: %s\n", error.c_str());
    PrintSuiteUsage(stderr);
    return 2;
  }

  if (!corpus_dir.empty()) {
    EmitSuiteCorpus(corpus_dir);
    std::printf("dsf suite: wrote %zu corpus files to %s\n",
                SuiteCorpusFiles().size(), corpus_dir.c_str());
    return 0;
  }

  const SuiteManifest manifest = LoadSuiteManifest(manifest_path);
  SuiteBaseline fresh = RunSuite(manifest, run_options);
  fresh.manifest = manifest_path;
  fresh.manifest_digest = SuiteDigest(manifest);
  for (const std::string& path : fresh.skipped_sources) {
    std::fprintf(stderr,
                 "dsf suite: note: optional source '%s' absent, skipped "
                 "(scripts/fetch_steinlib.sh fetches real sets)\n",
                 path.c_str());
  }

  if (!out_path.empty()) SaveSuiteBaseline(out_path, fresh);

  if (record) {
    SaveSuiteBaseline(baseline_path, fresh);
    std::printf("dsf suite: recorded %zu cells (%zu solvers x %zu instances)"
                " to %s [digest %s]\n",
                fresh.cells.size(), fresh.solvers.size(),
                fresh.solvers.empty()
                    ? static_cast<std::size_t>(0)
                    : fresh.cells.size() / fresh.solvers.size(),
                baseline_path.c_str(), fresh.manifest_digest.c_str());
    return 0;
  }
  if (check) {
    const SuiteBaseline committed = LoadSuiteBaseline(baseline_path);
    const SuiteCheckResult result = CompareBaselines(committed, fresh);
    std::fputs(result.report.c_str(), result.ok ? stdout : stderr);
    return result.ok ? 0 : 1;
  }

  // Plain run: emit the fresh baseline document.
  if (out_path.empty()) {
    std::fputs(SuiteBaselineToJson(fresh).c_str(), stdout);
  }
  return 0;
}

void PrintGenerators() {
  std::printf("generators (graph sources for 'generate <family> k=v ...'):\n");
  for (const auto name : GeneratorRegistry::Names()) {
    const GeneratorFamily& f = GeneratorRegistry::Get(name);
    std::printf("  %-14s %s\n", std::string(name).c_str(),
                std::string(f.description).c_str());
    for (const ParamSpec& p : f.params) {
      std::printf("      %s\n", DescribeParam(p).c_str());
    }
  }
  std::printf("\nsamplers (instances for 'sample <sampler> <name> k=v "
              "...'):\n");
  for (const auto name : SamplerRegistry::Names()) {
    const InstanceSampler& s = SamplerRegistry::Get(name);
    std::printf("  %-14s %s\n", std::string(name).c_str(),
                std::string(s.description).c_str());
    for (const ParamSpec& p : s.params) {
      std::printf("      %s\n", DescribeParam(p).c_str());
    }
  }
}

}  // namespace
}  // namespace dsf

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    try {
      return dsf::RunServeCommand(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dsf serve: %s\n", e.what());
      return 2;
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "shard-router") == 0) {
    try {
      return dsf::RunShardRouterCommand(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dsf shard-router: %s\n", e.what());
      return 2;
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "client") == 0) {
    try {
      return dsf::RunClientCommand(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dsf client: %s\n", e.what());
      return 2;
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "suite") == 0) {
    try {
      return dsf::RunSuiteCommand(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dsf suite: %s\n", e.what());
      return 2;
    }
  }
  dsf::CliArgs args;
  std::string error;
  if (!dsf::ParseArgs(argc, argv, args, error)) {
    std::fprintf(stderr, "dsf: %s\n", error.c_str());
    dsf::PrintUsage(stderr);
    return 2;
  }
  if (args.help) {
    dsf::PrintUsage(stdout);
    return 0;
  }
  if (args.list_solvers) {
    for (const auto name : dsf::SolverRegistry::Names()) {
      const dsf::Solver& s = dsf::SolverRegistry::Get(name);
      std::printf("%-10s %s %s\n", std::string(name).c_str(),
                  s.Distributed() ? "[dist]" : "[cent]",
                  std::string(s.Description()).c_str());
    }
    return 0;
  }
  if (args.list_generators) {
    dsf::PrintGenerators();
    return 0;
  }
  if (args.scenario_path.empty()) {
    std::fprintf(stderr, "dsf: --scenario is required\n");
    dsf::PrintUsage(stderr);
    return 2;
  }
  try {
    return dsf::RunCli(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsf: %s\n", e.what());
    return 2;
  }
}
