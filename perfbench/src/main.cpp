// perfbench: runs one workload for a fixed time and prints one JSON
// document (metrics, correctness counts, diagnostics) on stdout. Normally
// started by perfbench/run.py, which builds it and adds provenance:
//
//   perfbench --workload serve-mix --seed 1 --seconds 15 --trace 0 \
//             --dsf .bench_build/dsf/dsf
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-mix|batch-central|congest-paper "
               "--seed N --seconds S --trace 0|1 --dsf PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--dsf") {
      args.dsf_binary = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seed == 0 || !(args.seconds > 0.0)) return Usage();
  try {
    perfbench::Outcome out;
    if (workload == "serve-mix") {
      if (args.dsf_binary.empty()) return Usage();
      out = perfbench::RunServeMix(args);
    } else if (workload == "batch-central") {
      out = perfbench::RunBatchCentral(args);
    } else if (workload == "congest-paper") {
      out = perfbench::RunCongestPaper(args);
    } else {
      return Usage();
    }
    out.info["error_rate"] = out.attempted > 0 ? static_cast<double>(out.failed) /
                                                     static_cast<double>(out.attempted)
                                               : 0.0;
    if (args.trace) perfbench::SetMetric(out, "error_rate", out.info["error_rate"], "ratio");
    std::cout << perfbench::ToJson(out) << std::endl;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
