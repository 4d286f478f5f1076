// batch-central and congest-paper: the in-process BatchEngine at one
// executor, as `dsf --scenario` runs it, over a seeded workload spec.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "common/random.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "solve/batch.hpp"
#include "solve/solver_spec.hpp"
#include "workload/spec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct BatchWorkload {
  std::string (*spec)(std::uint64_t seed, int rounds);
  std::vector<std::string> solvers;
  int rounds = 1;
  // The traced run covers fewer units (two passes share its time) and
  // keeps three copies, so it lists fewer rounds.
  int traced_rounds = 1;
  // Exact metrics (cost_over_dual, rounds_sum, messages_sum) cover this
  // fixed prefix of the unit list, so they repeat bit for bit per seed
  // however far a run gets.
  std::size_t exact_units = 0;
};

// One expanded copy of the workload with its unit list in case-major
// order (case, instance, solver): a run that stops early has still seen
// every solver on the cases it reached. Unit seeds are the ones the
// one-shot CLI derives for the same spec.
struct Prepared {
  dsf::Workload workload;
  std::vector<dsf::SolveRequest> units;
  std::vector<int> instance_id;  // distinct (case, instance) per unit
};

std::unique_ptr<Prepared> Prepare(const std::string& text,
                                  const std::vector<std::string>& solvers) {
  auto p = std::make_unique<Prepared>();
  std::istringstream in(text);
  const dsf::WorkloadSpec spec = dsf::ParseWorkloadSpec(in, "<perfbench>");
  p->workload = dsf::ExpandWorkload(spec);
  dsf::RequestMatrix matrix =
      dsf::BuildRequests(p->workload, solvers, dsf::SolveOptions{});
  const std::size_t n = matrix.requests.size();
  const std::size_t cells = n / solvers.size();
  std::vector<int> first_instance(p->workload.cases.size(), 0);
  for (std::size_t c = 1; c < first_instance.size(); ++c) {
    first_instance[c] = first_instance[c - 1] +
                        static_cast<int>(p->workload.cases[c - 1].instances.size());
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Solver-major matrix index i = s * cells + cell.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return a % cells < b % cells;
  });
  for (const std::size_t i : order) {
    dsf::SolveRequest req = matrix.requests[i];
    req.seed = dsf::DeriveSeed(spec.seed, i);
    p->units.push_back(std::move(req));
    p->instance_id.push_back(first_instance[static_cast<std::size_t>(matrix.case_index[i])] +
                             matrix.instance_index[i]);
  }
  return p;
}

struct Stored {
  std::vector<dsf::EdgeId> forest;
  dsf::Weight weight = 0;
  bool feasible = false;
  bool cancelled = false;
  long rounds = 0;    // core + transform
  long messages = 0;  // core + transform
};

Stored Keep(const dsf::SolveResult& r) {
  return Stored{r.forest, r.weight, r.validated && r.feasible, r.cancelled,
                r.stats.rounds + r.transform_rounds,
                r.stats.messages + r.transform_messages};
}

dsf::SolveResult RunOne(dsf::BatchEngine& engine, const dsf::SolveRequest& unit) {
  return std::move(engine.Run(std::span<const dsf::SolveRequest>(&unit, 1))[0]);
}

// Gate every stored result against the benchmark's own copy of the unit.
void CheckAll(Outcome& out, const Prepared& own,
              const std::vector<std::optional<Stored>>& stored) {
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (!stored[i]) continue;
    const dsf::SolveRequest& unit = own.units[i];
    std::string why = CheckForest(*unit.graph, unit, stored[i]->forest,
                                  stored[i]->weight);
    if (why.empty() && !stored[i]->feasible) why = "solver reported infeasible";
    if (why.empty() && stored[i]->cancelled) why = "solve was cancelled";
    if (!why.empty()) out.Fail("unit " + std::to_string(i) + " (" + unit.solver + "): " + why);
  }
}

// cost_over_dual, rounds_sum and messages_sum over the fixed prefix; runs
// any prefix unit the timed phase did not reach.
void ExactMetrics(Outcome& out, const BatchWorkload& wl, Prepared& prepared,
                  std::vector<std::optional<Stored>>& stored,
                  dsf::BatchEngine& engine, SpanLog& log) {
  const std::size_t prefix = std::min(wl.exact_units, prepared.units.size());
  std::map<int, double> duals;
  double log_ratio = 0.0;
  long ratios = 0;
  double rounds = 0.0;
  double messages = 0.0;
  for (std::size_t i = 0; i < prefix; ++i) {
    if (!stored[i]) stored[i] = Keep(RunOne(engine, prepared.units[i]));
    const dsf::SolveRequest& unit = prepared.units[i];
    auto it = duals.find(prepared.instance_id[i]);
    if (it == duals.end()) {
      const double dual =
          Span(log, "lowerbounds.dual", [&] { return DualOf(*unit.graph, unit); });
      it = duals.emplace(prepared.instance_id[i], dual).first;
    }
    if (it->second > 0.0) {
      log_ratio += std::log(static_cast<double>(stored[i]->weight) / it->second);
      ++ratios;
    }
    rounds += static_cast<double>(stored[i]->rounds);
    messages += static_cast<double>(stored[i]->messages);
  }
  out.info["exact_units"] = static_cast<double>(prefix);
  const double cost_over_dual = ratios > 0 ? std::exp(log_ratio / static_cast<double>(ratios)) : 0.0;
  out.info["cost_over_dual"] = cost_over_dual;
  out.info["rounds_sum"] = rounds;
  out.info["messages_sum"] = messages;
  out.info["dual_instances"] = static_cast<double>(duals.size());
}

void Measured(Outcome& out, const BatchWorkload& wl, double seconds,
              const std::string& text, std::unique_ptr<Prepared> solved) {
  const std::size_t n = solved->units.size();
  dsf::BatchEngine engine(dsf::BatchOptions{1, 0});
  std::vector<std::optional<Stored>> stored(n);
  std::vector<double> latency;
  // Whole rounds only: every round holds the same mix of shapes, so a run
  // that ends mid-round would weigh the shapes by the seed's order. The
  // deadline is checked at round boundaries.
  const std::size_t round_units = n / static_cast<std::size_t>(wl.rounds);
  const auto start = Clock::now();
  auto deadline = After(seconds);
  Clock::duration paused{};
  std::size_t k = 0;
  while (k % round_units != 0 || Clock::now() < deadline) {
    if (k > 0 && k % n == 0) {
      // The list is used up. The next pass runs on freshly expanded graphs,
      // so per-graph memos (CachedParameters) are cold again, as on the
      // first pass. The re-expansion is not timed.
      const auto p0 = Clock::now();
      solved.reset();
      solved = Prepare(text, wl.solvers);
      const auto pause = Clock::now() - p0;
      deadline += pause;
      paused += pause;
    }
    const std::size_t i = k % n;
    ++k;
    ++out.attempted;
    const auto t0 = Clock::now();
    try {
      dsf::SolveResult r = RunOne(engine, solved->units[i]);
      latency.push_back(MsSince(t0));
      if (!stored[i]) stored[i] = Keep(r);
    } catch (const std::exception& e) {
      out.Fail("unit " + std::to_string(i) + " threw: " + e.what());
    }
  }
  const double elapsed_s =
      (MsSince(start) - std::chrono::duration<double, std::milli>(paused).count()) / 1000.0;
  SetMetric(out, "throughput_per_s", static_cast<double>(latency.size()) / elapsed_s, "1/s");
  SetMetric(out, "unit_p50_ms", Percentile(latency, 0.50), "ms");
  SetMetric(out, "unit_p95_ms", Percentile(latency, 0.95), "ms");
  SetMetric(out, "peak_rss_mb", PeakRssMb(), "MB");
  out.info["units_timed"] = static_cast<double>(latency.size());
  out.info["units_distinct"] = static_cast<double>(std::min(k, n));
  out.info["passes"] = static_cast<double>((k + n - 1) / n);
  out.info["rounds_timed"] = static_cast<double>(k / round_units);

  // The gate's own copy is expanded only now, so the measured process
  // holds one copy of the workload.
  solved.reset();
  const std::unique_ptr<Prepared> own = Prepare(text, wl.solvers);
  CheckAll(out, *own, stored);
  SpanLog log;
  ExactMetrics(out, wl, *own, stored, engine, log);
  SetMetric(out, "cost_over_dual", out.info["cost_over_dual"], "ratio");
}

void Traced(Outcome& out, const BatchWorkload& wl, double seconds,
            std::vector<std::unique_ptr<Prepared>>& reps) {
  // Each unit runs untraced (Solve() through the engine, on copy A) and
  // through the traced stage replica (on copy B), in alternating order so
  // neither side is always first. Then the same units run as one batch
  // (copy C) and one by one (copy D), for the batch's own overhead.
  // Separate copies keep the per-graph parameter memo cold for each pass.
  Prepared& a = *reps[0];
  Prepared& b = *reps[1];
  Prepared& c = *reps[2];
  Prepared& d = *reps[3];
  const std::size_t n = a.units.size();
  dsf::BatchEngine engine(dsf::BatchOptions{1, 0});
  std::vector<std::optional<Stored>> stored(n);
  SpanLog log;
  double solve_total = 0.0;
  double traced_total = 0.0;
  double span_total = 0.0;
  // Per-solver untraced time, and for CR units the part of it that
  // SolveResult::wall_ms (core + prune) does not cover.
  std::map<std::string, double> solve_by_solver;
  double cr_solve_total = 0.0;
  double cr_outside_wall = 0.0;
  Accounting accounting;
  // A warm-up unit from the end of the list (a graph the measured units do
  // not use) on both copies, so neither side pays first-run costs.
  (void)RunOne(engine, a.units[n - 1]);
  (void)TracedSolve(b.units[n - 1], b.units[n - 1].seed, log);
  log = SpanLog{};
  const auto deadline = After(seconds);
  std::size_t units = 0;
  for (; units + 1 < n && Clock::now() < deadline; ++units) {
    const std::size_t i = units;
    ++out.attempted;
    double untraced_ms = 0.0;
    const auto untraced = [&] {
      const auto t0 = Clock::now();
      stored[i] = Keep(RunOne(engine, a.units[i]));
      untraced_ms = MsSince(t0);
    };
    dsf::SolveResult r;
    const double before = log.Sum();
    const double core_before = log.Total("core." + dsf::ParseSolverSpec(b.units[i].solver).base);
    const double prune_before = log.Total("steiner.prune");
    double traced_ms = 0.0;
    const auto traced = [&] {
      const auto t0 = Clock::now();
      r = TracedSolve(b.units[i], b.units[i].seed, log);
      traced_ms = MsSince(t0);
    };
    if (i % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    solve_total += untraced_ms;
    traced_total += traced_ms;
    span_total += log.Sum() - before;
    const std::string solver = dsf::ParseSolverSpec(a.units[i].solver).base;
    accounting.Add(solver + (a.units[i].use_cr ? "/cr" : "/ic"), untraced_ms, log.Sum() - before);
    solve_by_solver[solver] += untraced_ms;
    if (a.units[i].use_cr) {
      cr_solve_total += untraced_ms;
      cr_outside_wall += untraced_ms - (log.Total("core." + solver) - core_before) -
                         (log.Total("steiner.prune") - prune_before);
    }
    if (r.weight != stored[i]->weight || r.forest != stored[i]->forest) {
      out.Fail("unit " + std::to_string(i) + ": traced replica diverged from Solve()");
    }
  }

  // The batch comparison covers the first half of the traced units.
  const std::size_t batched = (units + 1) / 2;
  const auto t0 = Clock::now();
  const auto batch = engine.Run(std::span<const dsf::SolveRequest>(c.units.data(), batched));
  const double batch_wall = MsSince(t0);
  double one_by_one = 0.0;
  for (std::size_t i = 0; i < batched; ++i) {
    const auto u0 = Clock::now();
    (void)RunOne(engine, d.units[i]);
    one_by_one += MsSince(u0);
  }
  for (std::size_t i = 0; i < batched; ++i) {
    if (batch[i].weight != stored[i]->weight || batch[i].forest != stored[i]->forest) {
      out.Fail("unit " + std::to_string(i) + ": batch result diverged from Solve()");
    }
  }
  CheckAll(out, b, stored);

  const double per_unit = units > 0 ? 1.0 / static_cast<double>(units) : 0.0;
  for (const char* solver : CoreSolvers()) {
    SetMetric(out, "core." + std::string(solver) + "_ms", log.Mean("core." + std::string(solver)), "ms");
  }
  SetMetric(out, "steiner.minimal_ms", log.Mean("steiner.minimal"), "ms");
  SetMetric(out, "steiner.prune_ms", log.Mean("steiner.prune"), "ms");
  SetMetric(out, "steiner.validate_ms", log.Mean("steiner.validate"), "ms");
  SetMetric(out, "graph.params_ms", log.Mean("graph.params"), "ms");
  SetMetric(out, "dist.transform_ms", log.Mean("dist.transform"), "ms");
  const long transforms = log.Count("dist.transform");
  const double per_transform = transforms > 0 ? 1.0 / static_cast<double>(transforms) : 0.0;
  SetMetric(out, "dist.transform_rounds", log.CountTotal("dist.transform_rounds") * per_transform, "count");
  SetMetric(out, "dist.transform_messages", log.CountTotal("dist.transform_messages") * per_transform, "count");
  const double rounds = log.CountTotal("congest.rounds");
  const double messages = log.CountTotal("congest.messages");
  const double dist_core_ms = log.Total("core.dist-det") + log.Total("core.dist-rand");
  SetMetric(out, "congest.rounds", rounds * per_unit, "count");
  SetMetric(out, "congest.messages", messages * per_unit, "count");
  SetMetric(out, "congest.bits", log.CountTotal("congest.bits") * per_unit, "count");
  SetMetric(out, "congest.us_per_round", rounds > 0 ? 1000.0 * dist_core_ms / rounds : 0.0, "us");
  SetMetric(out, "congest.msgs_per_s", dist_core_ms > 0 ? 1000.0 * messages / dist_core_ms : 0.0, "1/s");
  SetMetric(out, "steiner.phases", log.CountTotal("steiner.phases") * per_unit, "count");
  SetMetric(out, "solve.overhead_ms", (solve_total - span_total) * per_unit, "ms");
  SetMetric(out, "solve.batch_overhead_ms",
            batched > 0 ? (batch_wall - one_by_one) / static_cast<double>(batched) : 0.0, "ms");
  // Shares of the untraced time, for the findings in README.md.
  if (solve_by_solver["dist-det"] > 0) {
    // Parameters are paid by the first unit on each graph, a dist-det unit.
    out.info["params_share_of_dist_det"] = log.Total("graph.params") / solve_by_solver["dist-det"];
  }
  if (cr_solve_total > 0) {
    out.info["cr_units_ms"] = cr_solve_total / static_cast<double>(log.Count("dist.transform"));
    out.info["cr_share_outside_wall_ms"] = cr_outside_wall / cr_solve_total;
    out.info["transform_share_of_cr_units"] = log.Total("dist.transform") / cr_solve_total;
  }

  SpanLog dual_log;
  ExactMetrics(out, wl, a, stored, engine, dual_log);
  SetMetric(out, "lowerbounds.dual_ms", dual_log.Mean("lowerbounds.dual"), "ms");
  SetMetric(out, "rounds_sum", out.info["rounds_sum"], "count");
  SetMetric(out, "messages_sum", out.info["messages_sum"], "count");

  SetMetric(out, "trace.unaccounted_share", accounting.Overall(), "ratio");
  SetMetric(out, "trace.overhead_ratio",
            solve_total > 0 ? (traced_total - solve_total) / solve_total : 0.0, "ratio");
  SetMetric(out, "trace.accounted_ops", static_cast<double>(units), "count");
  accounting.Check(out, kAccountingBound);
}

Outcome RunBatch(const BatchWorkload& wl, const RunArgs& args) {
  Outcome out;
  if (args.trace) {
    // No server, protocol or incremental tier on this path.
    Bypass(out, {"serve.miss_p50_ms", "serve.miss_p95_ms", "serve.hit_p50_ms",
                 "serve.hit_p95_ms", "serve.revise_p50_ms", "serve.revise_p95_ms",
                 "serve.socket_ms", "cli.json_parse_ms", "graph.connected_ms",
                 "serve.hash_ms", "serve.cache_lookup_ms", "serve.cache_insert_ms",
                 "serve.dispatch_ms", "serve.serialize_ms", "serve.queue_wait_ms",
                 "serve.batch_units", "serve.coalesced_ratio", "serve.rejected",
                 "serve.cache_hit_ratio", "serve.cache_evictions", "steiner.delta_ms",
                 "solve.repair_ms", "solve.incremental_ms", "solve.warm_ratio"});
  }
  const std::string text = wl.spec(args.seed, args.trace ? wl.traced_rounds : wl.rounds);
  // Set-up as a user pays it: parse the spec, expand it (generators and
  // samplers), build the request matrix. Five times; the median is setup_s.
  // The traced run keeps one copy per pass.
  const int keep = args.trace ? 4 : 1;
  const int setups = std::max(5, keep);
  std::vector<std::unique_ptr<Prepared>> prepared;
  std::vector<double> setup;
  for (int r = 0; r < setups; ++r) {
    const auto t0 = Clock::now();
    auto p = Prepare(text, wl.solvers);
    setup.push_back(MsSince(t0) / 1000.0);
    if (r >= setups - keep) prepared.push_back(std::move(p));
  }
  out.info["units_listed"] = static_cast<double>(prepared[0]->units.size());
  if (args.trace) {
    SetMetric(out, "workload.expand_ms", Median(setup) * 1000.0, "ms");
    Traced(out, wl, args.seconds, prepared);
  } else {
    SetMetric(out, "setup_s", Median(setup), "s");
    Measured(out, wl, args.seconds, text, std::move(prepared[0]));
  }
  return out;
}

}  // namespace

Outcome RunBatchCentral(const RunArgs& args) {
  return RunBatch(BatchWorkload{&BatchCentralSpec, BatchCentralSolvers(), 12, 4, 528}, args);
}

Outcome RunCongestPaper(const RunArgs& args) {
  return RunBatch(BatchWorkload{&CongestPaperSpec, CongestPaperSolvers(), 10, 4, 540}, args);
}

}  // namespace perfbench
