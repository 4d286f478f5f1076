// The three benchmark workloads. Each measures for `seconds`, checks every
// output, and returns the end-to-end metrics (trace off) or the per-layer
// metrics (trace on). See perfbench/README.md for what each one stresses.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>

#include "measure.hpp"

namespace perfbench {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dsf_binary;  // the `dsf` CLI, for serve-mix's server process
};

// A traced run fails when its leaf spans leave more than this share of the
// untraced time (Solve() per unit, HandleRequestLine per request)
// unaccounted, in either direction.
inline constexpr double kAccountingBound = 0.10;

Outcome RunServeMix(const RunArgs& args);
Outcome RunBatchCentral(const RunArgs& args);
Outcome RunCongestPaper(const RunArgs& args);

inline void SetMetric(Outcome& out, const std::string& name, double value,
                      const std::string& unit) {
  out.metrics[name] = Metric{value, unit};
}

// Names the per-layer metrics of the layers a workload does not exercise.
// Each workload lists its own; run.py reports them as 0 and fails a traced
// run that neither reports nor names a metric of BENCHMARK.json.
inline void Bypass(Outcome& out, std::initializer_list<const char*> names) {
  out.bypassed.insert(out.bypassed.end(), names.begin(), names.end());
}

}  // namespace perfbench
