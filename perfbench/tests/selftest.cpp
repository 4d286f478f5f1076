// The benchmark's own tests: seeded inputs are reproducible and
// seed-sensitive, exact metrics repeat bit for bit, and the correctness
// gate rejects a broken forest. Exits non-zero if any check fails.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "inputs.hpp"
#include "pipeline.hpp"
#include "workload/spec.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

std::string Script(std::uint64_t seed) {
  std::string all;
  for (int c = 0; c < perfbench::kConnections; ++c) {
    for (long i = 0; i < 4 * perfbench::kBlockOps; ++i) {
      const perfbench::ServeOp op = perfbench::MakeServeOp(seed, c, i);
      all += perfbench::RequestLine(op, "00000000000000000000000000000000") + "\n";
    }
  }
  return all;
}

void SeedsDetermineInputs() {
  Expect(Script(7) == Script(7), "same seed gives the same serve-mix scripts");
  Expect(Script(7) != Script(8), "another seed gives other serve-mix scripts");
  Expect(perfbench::BatchCentralSpec(7, 2) == perfbench::BatchCentralSpec(7, 2),
         "same seed gives the same batch-central spec");
  Expect(perfbench::BatchCentralSpec(7, 2) != perfbench::BatchCentralSpec(8, 2),
         "another seed gives another batch-central spec");
  Expect(perfbench::CongestPaperSpec(7, 2) == perfbench::CongestPaperSpec(7, 2),
         "same seed gives the same congest-paper spec");
  Expect(perfbench::CongestPaperSpec(7, 2) != perfbench::CongestPaperSpec(8, 2),
         "another seed gives another congest-paper spec");
}

void ExactMetricsRepeat() {
  perfbench::RunArgs args;
  args.seed = 5;
  args.seconds = 0.2;
  const perfbench::Outcome a = perfbench::RunCongestPaper(args);
  const perfbench::Outcome b = perfbench::RunCongestPaper(args);
  for (const char* name : {"cost_over_dual", "rounds_sum", "messages_sum"}) {
    const double va = a.info.at(name);
    const double vb = b.info.at(name);
    Expect(va == vb && va > 0, (std::string("congest-paper ") + name + " repeats exactly").c_str());
  }
  Expect(a.Correct() && b.Correct(), "congest-paper outputs pass the gate");
  args.seed = 6;
  const perfbench::Outcome c = perfbench::RunCongestPaper(args);
  Expect(c.info.at("rounds_sum") != a.info.at("rounds_sum"),
         "another seed gives other exact metrics");
}

void GateRejectsBrokenForests() {
  std::istringstream in(
      "seed 3\n"
      "generate grid rows=12 cols=12 min_w=1 max_w=8\n"
      "sample random-ic a k=3 tpc=3\n"
      "sample random-cr b pairs=4\n");
  const dsf::Workload wl = dsf::ExpandWorkload(dsf::ParseWorkloadSpec(in, "<test>"));
  const std::vector<std::string> solvers = {"gw-moat"};
  const dsf::RequestMatrix m = dsf::BuildRequests(wl, solvers, dsf::SolveOptions{});
  for (const dsf::SolveRequest& req : m.requests) {
    const dsf::SolveResult r = dsf::Solve(req);
    const dsf::Graph& g = *req.graph;
    const char* form = req.use_cr ? "CR" : "IC";
    Expect(perfbench::CheckForest(g, req, r.forest, r.weight).empty(),
           (std::string("gate accepts a solver's forest (") + form + ")").c_str());
    std::vector<dsf::EdgeId> cut = r.forest;
    cut.erase(cut.begin() + static_cast<long>(cut.size() / 2));
    Expect(!perfbench::CheckForest(g, req, cut, g.WeightOf(cut)).empty(),
           (std::string("gate rejects a forest missing an edge (") + form + ")").c_str());
    Expect(!perfbench::CheckForest(g, req, r.forest, r.weight + 1).empty(),
           (std::string("gate rejects a misreported weight (") + form + ")").c_str());
    std::vector<dsf::EdgeId> bogus = r.forest;
    bogus.push_back(g.NumEdges());
    Expect(!perfbench::CheckForest(g, req, bogus, r.weight).empty(),
           (std::string("gate rejects an out-of-range edge (") + form + ")").c_str());
  }
  perfbench::Outcome out;
  out.attempted = 1;
  out.Fail("injected");
  Expect(perfbench::ToJson(out).find("\"correct\":false") != std::string::npos,
         "a failed op makes the run incorrect");
}

}  // namespace

int main() {
  SeedsDetermineInputs();
  GateRejectsBrokenForests();
  ExactMetricsRepeat();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
