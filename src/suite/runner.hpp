// Suite runner: the manifest's instance x solver matrix on the BatchEngine.
//
// One run measures every (instance, solver) cell twice over:
//   * quality — cost, feasibility, the Lemma C.4 dual lower bound and the
//     cost/dual ratio, simulator rounds, charged rounds, messages and the
//     solver's phase count. All of these are bit-stable (fixed-point arithmetic, seeded
//     solvers, deterministic simulator), so the baseline diff can demand
//     exact equality.
//   * timing — p50/p95 wall milliseconds across `timing_reps` repetitions
//     of the whole matrix. Timing is machine-dependent and only ever
//     compared within the banded tolerance policy.
// Per-cell seeds derive from the suite seed and the (case, instance)
// position, so every solver on one instance shares its seed, as portfolio
// members do. They do NOT come from the BatchEngine's master-seed knob:
// every timing repetition must replay the identical seed per cell or the
// reps would not be comparable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "suite/manifest.hpp"

namespace dsf {

// One (instance, solver) measurement. `cost` and friends are stored in the
// widest integer form so the JSON round-trip is exact.
struct SuiteCell {
  std::string solver;
  std::string case_name;
  std::string instance;
  std::string source;  // e.g. "import stp b_like_01.stp", "generate er"
  // Case topology (context, compared exactly): size, hop diameter D and
  // shortest-path diameter s — the parameters the round bounds are stated in.
  long long n = 0;
  long long m = 0;
  long long D = 0;
  long long s = 0;
  // Quality (exact comparison):
  long long cost = 0;
  bool feasible = false;
  long long dual_lb_fixed = 0;  // Lemma C.4 dual, Fixed units (2^-12)
  double ratio = 0.0;           // cost / FixedToReal(dual); 0 when dual == 0
  long long rounds = 0;
  long long charged_rounds = 0;  // rounds charged for substituted subroutines
  long long messages = 0;
  long long phases = 0;  // solver's own phase count: moat merge phases,
                         // greedy merges, local-search passes; 0 for
                         // dist-rand, dist-khan and mst-prune
  // Timing (banded comparison):
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

struct SuiteBaseline {
  std::string manifest;  // manifest path as given on the command line
  std::string manifest_digest;
  std::uint64_t seed = 1;
  int timing_reps = 3;
  double latency_band = 3.0;
  double latency_floor_ms = 50.0;
  std::vector<std::string> solvers;
  // Optional sources whose files were absent this run (not fetched).
  std::vector<std::string> skipped_sources;
  std::vector<SuiteCell> cells;
};

struct SuiteRunOptions {
  int threads = 1;  // BatchEngine executors
  // Regression-injection hooks for tests and the CI fail-on-inject proof:
  // added to every cell's cost / p95 after measurement, so `--check` must
  // flag them against an honest committed baseline.
  long long inject_cost_delta = 0;
  double inject_p95_ms = 0.0;
};

// Expands every source, runs the full matrix `timing_reps` times, and
// returns the populated baseline. Throws std::runtime_error on unreadable
// required sources, expansion failures, and duplicate (case, instance)
// names across sources.
SuiteBaseline RunSuite(const SuiteManifest& manifest,
                       const SuiteRunOptions& options = {});

}  // namespace dsf
