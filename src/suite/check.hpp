// Baseline comparison: the regression gate behind `dsf suite --check`.
//
// Tolerance policy (DESIGN.md §9): quality fields are compared exactly —
// the solvers are deterministic and fixed-point, so ANY drift in cost,
// feasibility, dual bound, rounds, charged rounds, messages, or phases (or
// in the n/m/D/s context) is a behavior change that must be acknowledged by
// regenerating the baseline. Timing fields are machine-dependent, so only a
// p95 that exceeds the committed p95 by more than the banded tolerance
// (committed * (1 + band) + floor, knobs stamped into the committed
// baseline) counts as a regression. A digest mismatch
// means the corpus itself changed; comparing cells across different corpora
// would be meaningless, so that fails fast with a "stale baseline" verdict.
#pragma once

#include <string>
#include <vector>

#include "suite/runner.hpp"

namespace dsf {

struct SuiteRegression {
  std::string cell;    // "solver / case / instance", or "<suite>" for
                       // structural failures (digest, cell-set mismatch)
  std::string metric;  // "cost", "p95_ms", "missing cell", ...
  std::string committed;
  std::string fresh;
};

struct SuiteCheckResult {
  bool ok = true;
  // Human-readable verdict: one line per regression plus a summary, or the
  // all-clear line. Always printable as-is.
  std::string report;
  std::vector<SuiteRegression> regressions;
};

SuiteCheckResult CompareBaselines(const SuiteBaseline& committed,
                                  const SuiteBaseline& fresh);

}  // namespace dsf
