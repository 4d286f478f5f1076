// The suite wall: manifest parsing, baseline round-trips, regression
// checks, and the committed corpus staying a fixed point of its generator.
#include "suite/manifest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "solve/solver_spec.hpp"
#include "suite/baseline.hpp"
#include "suite/check.hpp"
#include "suite/corpus.hpp"
#include "suite/runner.hpp"

namespace dsf {
namespace {

SuiteManifest ParseString(const std::string& text) {
  std::istringstream in(text);
  return ParseSuiteManifest(in, "<string>");
}

std::string ErrorOf(const std::string& text) {
  try {
    (void)ParseString(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

constexpr char kTinyStp[] =
    "33D32945 STP File, STP Format Version 1.0\n"
    "SECTION Graph\n"
    "Nodes 4\n"
    "Edges 4\n"
    "E 1 2 1\n"
    "E 2 3 2\n"
    "E 3 4 1\n"
    "E 1 4 5\n"
    "END\n"
    "SECTION Terminals\n"
    "Terminals 2\n"
    "T 1\n"
    "T 3\n"
    "END\n"
    "EOF\n";

// Writes a self-contained manifest + one .stp source into TempDir and
// returns the manifest path.
std::string WriteTinySuite() {
  const std::string dir = ::testing::TempDir();
  const std::string stp_path = dir + "/suite_tiny.stp";
  {
    std::ofstream out(stp_path);
    out << kTinyStp;
  }
  const std::string manifest_path = dir + "/suite_tiny.dsf-suite";
  {
    std::ofstream out(manifest_path);
    out << "seed 7\n"
           "solver gw-moat\n"
           "solver mst-prune\n"
           "timing-reps 2\n"
           "latency-band 3\n"
           "latency-floor-ms 50\n"
           "stp suite_tiny.stp\n";
  }
  return manifest_path;
}

// --- manifest parsing --------------------------------------------------------

TEST(SuiteManifestTest, ParsesAllDirectives) {
  const SuiteManifest m = ParseString(
      "# comment\n"
      "seed 9\n"
      "solver gw-moat\n"
      "solver mst-prune\n"
      "timing-reps 5\n"
      "latency-band 2.5\n"
      "latency-floor-ms 10\n"
      "stp a.stp\n"
      "optional-stp b.stp\n"
      "spec c.dsf\n");
  EXPECT_EQ(m.seed, 9u);
  ASSERT_EQ(m.solvers.size(), 2u);
  EXPECT_EQ(m.solvers[0], "gw-moat");
  EXPECT_EQ(m.timing_reps, 5);
  EXPECT_DOUBLE_EQ(m.latency_band, 2.5);
  EXPECT_DOUBLE_EQ(m.latency_floor_ms, 10.0);
  ASSERT_EQ(m.sources.size(), 3u);
  EXPECT_EQ(m.sources[0].kind, SuiteSource::Kind::kStp);
  EXPECT_EQ(m.sources[1].kind, SuiteSource::Kind::kOptionalStp);
  EXPECT_EQ(m.sources[2].kind, SuiteSource::Kind::kSpec);
}

TEST(SuiteManifestTest, ErrorsCarryOriginAndLine) {
  // Unknown directive on line 3.
  EXPECT_NE(ErrorOf("solver gw-moat\nstp a.stp\nfrobnicate 1\n")
                .find("<string>:3:"),
            std::string::npos);
  // Invalid solver spec on line 1.
  EXPECT_NE(ErrorOf("solver no-such-solver\nstp a.stp\n").find("<string>:1:"),
            std::string::npos);
  // Duplicate solver on line 2.
  EXPECT_NE(ErrorOf("solver gw-moat\nsolver gw-moat\nstp a.stp\n")
                .find("<string>:2:"),
            std::string::npos);
  // Two spellings of one portfolio configuration are one solver.
  EXPECT_NE(ErrorOf("solver portfolio(roster=gw-moat+mst-prune)\n"
                    "solver portfolio(roster=mst-prune+gw-moat)\n"
                    "stp a.stp\n")
                .find("<string>:2: duplicate solver"),
            std::string::npos);
  // Duplicate source path on line 3.
  EXPECT_NE(ErrorOf("solver gw-moat\nstp a.stp\nstp a.stp\n")
                .find("<string>:3:"),
            std::string::npos);
  // Out-of-range knob.
  EXPECT_NE(ErrorOf("solver gw-moat\ntiming-reps 0\nstp a.stp\n")
                .find("<string>:2:"),
            std::string::npos);
  // Empty roster / empty source list.
  EXPECT_NE(ErrorOf("stp a.stp\n").find("solver"), std::string::npos);
  EXPECT_NE(ErrorOf("solver gw-moat\n").find("source"), std::string::npos);
}

TEST(SuiteManifestTest, SolversAreStoredInCanonicalForm) {
  const SuiteManifest m = ParseString(
      "solver mst-prune\n"
      "solver portfolio(roster=mst-prune+gw-moat)\n"
      "stp a.stp\n");
  ASSERT_EQ(m.solvers.size(), 2u);
  EXPECT_EQ(m.solvers[0], "mst-prune");  // plain names are already canonical
  EXPECT_EQ(m.solvers[1],
            ParseSolverSpec("portfolio(roster=gw-moat+mst-prune)").Canonical());
}

TEST(SuiteManifestTest, DigestTracksContentAndReferencedFiles) {
  const std::string manifest_path = WriteTinySuite();
  const SuiteManifest a = LoadSuiteManifest(manifest_path);
  const SuiteManifest b = LoadSuiteManifest(manifest_path);
  EXPECT_EQ(SuiteDigest(a), SuiteDigest(b));

  // A semantic knob flips the digest.
  SuiteManifest c = a;
  c.seed += 1;
  EXPECT_NE(SuiteDigest(a), SuiteDigest(c));

  // Editing a referenced file flips the digest, same manifest text.
  // (SuiteDigest reads the file at call time, so capture "before" first.)
  const std::string before = SuiteDigest(a);
  {
    std::ofstream out(::testing::TempDir() + "/suite_tiny.stp",
                      std::ios::app);
    out << "# touched\n";
  }
  EXPECT_NE(before, SuiteDigest(LoadSuiteManifest(manifest_path)));
  // Restore for the tests that follow.
  {
    std::ofstream out(::testing::TempDir() + "/suite_tiny.stp");
    out << kTinyStp;
  }
}

// The files a spec source names (imports, churn traces) are corpus too: an
// edited trace must read as a stale baseline, not a solver regression.
TEST(SuiteManifestTest, DigestTracksFilesReferencedFromSpecs) {
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/suite_ref_churn.trace";
  std::string trace;
  {
    std::ifstream in(std::string(DSF_SOURCE_DIR) +
                         "/scenarios/suite/churn_base.trace",
                     std::ios::binary);
    ASSERT_TRUE(in);
    std::ostringstream content;
    content << in.rdbuf();
    trace = content.str();
  }
  const auto write = [](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
  };
  write(trace_path, trace);
  write(dir + "/suite_ref_tiny.stp", kTinyStp);
  write(dir + "/suite_ref.dsf",
        "generate er n=100 p=0.05 as er100\n"
        "churn c0 suite_ref_churn.trace\n"
        "import stp suite_ref_tiny.stp as tiny\n");
  const std::string manifest_path = dir + "/suite_ref.dsf-suite";
  write(manifest_path, "solver gw-moat\nspec suite_ref.dsf\n");

  const std::string before = SuiteDigest(LoadSuiteManifest(manifest_path));
  write(trace_path, trace + "# touched\n");
  const std::string after_trace =
      SuiteDigest(LoadSuiteManifest(manifest_path));
  EXPECT_NE(before, after_trace);
  write(dir + "/suite_ref_tiny.stp", std::string(kTinyStp) + "# touched\n");
  EXPECT_NE(after_trace, SuiteDigest(LoadSuiteManifest(manifest_path)));
  // Restoring the bytes restores the digest: content, not mtime, counts.
  write(trace_path, trace);
  write(dir + "/suite_ref_tiny.stp", kTinyStp);
  EXPECT_EQ(before, SuiteDigest(LoadSuiteManifest(manifest_path)));
}

// --- runner + baseline -------------------------------------------------------

TEST(SuiteRunnerTest, RunsTheMatrixAndStampsContext) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline b = RunSuite(manifest);
  ASSERT_EQ(b.cells.size(), 2u);  // 1 instance x 2 solvers
  EXPECT_EQ(b.solvers, manifest.solvers);
  EXPECT_EQ(b.seed, 7u);
  for (const SuiteCell& cell : b.cells) {
    EXPECT_EQ(cell.case_name, "suite_tiny");
    EXPECT_EQ(cell.instance, "terminals");
    EXPECT_EQ(cell.n, 4);
    EXPECT_EQ(cell.m, 4);
    EXPECT_TRUE(cell.feasible);
    EXPECT_GT(cell.cost, 0);
    EXPECT_GT(cell.dual_lb_fixed, 0);
    EXPECT_GE(cell.ratio, 1.0);
    EXPECT_GE(cell.p95_ms, cell.p50_ms);
  }
  // Quality is deterministic across whole runs, not just repetitions.
  const SuiteBaseline again = RunSuite(manifest);
  ASSERT_EQ(again.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < b.cells.size(); ++i) {
    EXPECT_EQ(again.cells[i].cost, b.cells[i].cost);
    EXPECT_EQ(again.cells[i].dual_lb_fixed, b.cells[i].dual_lb_fixed);
    EXPECT_EQ(again.cells[i].ratio, b.cells[i].ratio);
  }
}

TEST(SuiteBaselineTest, JsonRoundTripIsBitIdentical) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  SuiteBaseline b = RunSuite(manifest);
  b.manifest = "suite_tiny.dsf-suite";
  b.manifest_digest = SuiteDigest(manifest);
  b.skipped_sources.push_back("steinlib/b01.stp");

  const std::string once = SuiteBaselineToJson(b);
  const SuiteBaseline parsed = ParseSuiteBaseline(once, "<mem>");
  const std::string twice = SuiteBaselineToJson(parsed);
  EXPECT_EQ(once, twice);  // write -> read -> write is a fixed point

  EXPECT_EQ(parsed.manifest_digest, b.manifest_digest);
  EXPECT_EQ(parsed.seed, b.seed);
  EXPECT_EQ(parsed.skipped_sources, b.skipped_sources);
  ASSERT_EQ(parsed.cells.size(), b.cells.size());
  EXPECT_EQ(parsed.cells[0].cost, b.cells[0].cost);
  EXPECT_EQ(parsed.cells[0].ratio, b.cells[0].ratio);
  EXPECT_EQ(parsed.cells[0].p95_ms, b.cells[0].p95_ms);
}

// The D/s context and the charged_rounds/phases quality fields survive
// write -> read -> write byte for byte, from a real distributed run.
TEST(SuiteBaselineTest, RoundTripKeepsRoundAndContextFields) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream out(dir + "/suite_dist.dsf-suite");
    out << "solver dist-det\nsolver dist-rand\ntiming-reps 1\n"
           "stp suite_tiny.stp\n";
  }
  (void)WriteTinySuite();  // the .stp source
  const SuiteManifest manifest =
      LoadSuiteManifest(dir + "/suite_dist.dsf-suite");
  SuiteBaseline b = RunSuite(manifest);
  ASSERT_EQ(b.cells.size(), 2u);
  const SuiteCell& det = b.cells[0];
  const SuiteCell& rnd = b.cells[1];
  // The 4-node ring 1-2-3-4 (weights 1, 2, 1, 5): D = 2, and the least-
  // weight 1-4 route 1-2-3-4 takes s = 3 hops.
  EXPECT_EQ(det.D, 2);
  EXPECT_EQ(det.s, 3);
  EXPECT_GT(det.rounds, 0);
  EXPECT_GT(det.phases, 0);
  EXPECT_GT(rnd.charged_rounds, 0);

  const std::string once = SuiteBaselineToJson(b);
  const SuiteBaseline parsed = ParseSuiteBaseline(once, "<mem>");
  EXPECT_EQ(once, SuiteBaselineToJson(parsed));
  for (std::size_t i = 0; i < b.cells.size(); ++i) {
    EXPECT_EQ(parsed.cells[i].D, b.cells[i].D);
    EXPECT_EQ(parsed.cells[i].s, b.cells[i].s);
    EXPECT_EQ(parsed.cells[i].charged_rounds, b.cells[i].charged_rounds);
    EXPECT_EQ(parsed.cells[i].phases, b.cells[i].phases);
  }
  EXPECT_NE(once.find("\"dsf_suite_version\":2"), std::string::npos);
}

TEST(SuiteBaselineTest, ReaderRejectsMalformedDocuments) {
  EXPECT_THROW((void)ParseSuiteBaseline("{}", "<mem>"), std::runtime_error);
  EXPECT_THROW((void)ParseSuiteBaseline("not json", "<mem>"),
               std::runtime_error);
  EXPECT_THROW(
      (void)ParseSuiteBaseline(
          R"({"dsf_suite_version":99,"context":{},"cells":[]})", "<mem>"),
      std::runtime_error);
}

// --- the --check gate --------------------------------------------------------

TEST(SuiteCheckTest, UnchangedRunPasses) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  const SuiteBaseline fresh = RunSuite(manifest);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_TRUE(r.ok) << r.report;
  EXPECT_TRUE(r.regressions.empty());
  EXPECT_NE(r.report.find("OK"), std::string::npos);
}

TEST(SuiteCheckTest, InjectedCostRegressionFails) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  SuiteRunOptions inject;
  inject.inject_cost_delta = 1;
  const SuiteBaseline fresh = RunSuite(manifest, inject);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_FALSE(r.ok);
  bool saw_cost = false;
  bool saw_ratio = false;
  for (const SuiteRegression& reg : r.regressions) {
    saw_cost |= reg.metric == "cost";
    saw_ratio |= reg.metric == "ratio";  // injected cost moves the ratio too
  }
  EXPECT_TRUE(saw_cost);
  EXPECT_TRUE(saw_ratio);
  EXPECT_NE(r.report.find("cost"), std::string::npos);
}

TEST(SuiteCheckTest, InjectedLatencyRegressionFailsBeyondTheBand) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  SuiteRunOptions inject;
  inject.inject_p95_ms = 1e6;  // far past committed * (1 + 3) + 50ms
  const SuiteBaseline fresh = RunSuite(manifest, inject);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.regressions.empty());
  for (const SuiteRegression& reg : r.regressions) {
    EXPECT_EQ(reg.metric, "p95_ms");  // quality must NOT drift on injection
  }
}

TEST(SuiteCheckTest, SmallLatencyJitterStaysWithinTheBand) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  SuiteRunOptions inject;
  inject.inject_p95_ms = 1.0;  // absorbed by the 50ms floor
  const SuiteBaseline fresh = RunSuite(manifest, inject);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_TRUE(r.ok) << r.report;
}

TEST(SuiteCheckTest, DigestMismatchReportsStaleBaseline) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  SuiteBaseline committed = RunSuite(manifest);
  committed.manifest_digest = "0000000000000000";
  SuiteBaseline fresh = RunSuite(manifest);
  fresh.manifest_digest = SuiteDigest(manifest);
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.regressions.size(), 1u);
  EXPECT_EQ(r.regressions[0].metric, "manifest_digest");
  EXPECT_NE(r.report.find("STALE BASELINE"), std::string::npos);
  EXPECT_NE(r.report.find("--record"), std::string::npos);
}

TEST(SuiteCheckTest, FlagsDriftInRoundAndContextFields) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  const auto metrics_after = [&](void (*mutate)(SuiteCell&)) {
    SuiteBaseline fresh = committed;
    mutate(fresh.cells[0]);
    std::vector<std::string> metrics;
    for (const SuiteRegression& r :
         CompareBaselines(committed, fresh).regressions) {
      metrics.push_back(r.metric);
    }
    return metrics;
  };
  using Metrics = std::vector<std::string>;
  EXPECT_EQ(metrics_after([](SuiteCell& c) { c.charged_rounds += 1; }),
            Metrics{"charged_rounds"});
  EXPECT_EQ(metrics_after([](SuiteCell& c) { c.phases += 1; }),
            Metrics{"phases"});
  EXPECT_EQ(metrics_after([](SuiteCell& c) { c.s += 1; }), Metrics{"s"});
  EXPECT_EQ(metrics_after([](SuiteCell& c) { c.D += 1; }), Metrics{"D"});
}

TEST(SuiteCheckTest, MissingAndExtraCellsAreStructuralRegressions) {
  const SuiteManifest manifest = LoadSuiteManifest(WriteTinySuite());
  const SuiteBaseline committed = RunSuite(manifest);
  SuiteBaseline fresh = committed;
  fresh.cells.pop_back();
  fresh.cells[0].instance = "renamed";
  const SuiteCheckResult r = CompareBaselines(committed, fresh);
  EXPECT_FALSE(r.ok);
  bool saw_missing = false;
  bool saw_extra = false;
  for (const SuiteRegression& reg : r.regressions) {
    saw_missing |= reg.metric == "missing cell";
    saw_extra |= reg.metric == "extra cell";
  }
  EXPECT_TRUE(saw_missing);
  EXPECT_TRUE(saw_extra);
}

// --- the committed corpus ----------------------------------------------------

// The checked-in scenarios/suite/ files must be exactly what
// `dsf suite --emit-corpus` regenerates: a hand-edit would silently decouple
// the corpus from its seeds.
TEST(SuiteCorpusTest, CommittedFilesMatchTheGenerator) {
  const std::string dir = std::string(DSF_SOURCE_DIR) + "/scenarios/suite/";
  const std::vector<CorpusFile> files = SuiteCorpusFiles();
  ASSERT_EQ(files.size(), 7u);  // six .stp lookalikes + the churn trace
  for (const CorpusFile& file : files) {
    std::ifstream in(dir + file.name, std::ios::binary);
    ASSERT_TRUE(in) << "missing committed corpus file " << file.name;
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), file.content)
        << file.name << " diverges from --emit-corpus; regenerate it";
  }
}

TEST(SuiteCorpusTest, CommittedManifestLoadsAndListsTheWall) {
  const SuiteManifest m = LoadSuiteManifest(
      std::string(DSF_SOURCE_DIR) + "/scenarios/suite/manifest.dsf-suite");
  EXPECT_GE(m.solvers.size(), 5u);
  EXPECT_GE(m.sources.size(), 8u);  // 6 stp + optional + spec
  EXPECT_EQ(m.seed, 9181u);
}

// The paper's round experiments (DESIGN.md §6 rows E3, E4, E7): the
// committed baseline matches the committed manifest and holds a dist-det
// and a dist-rand cell for every swept x-value, plus the E7 baseline.
TEST(SuiteCorpusTest, CommittedPaperBaselineCoversTheRoundSeries) {
  const std::string root = DSF_SOURCE_DIR;
  const SuiteManifest m =
      LoadSuiteManifest(root + "/scenarios/paper/manifest.dsf-suite");
  const SuiteBaseline b = LoadSuiteBaseline(root + "/bench/SUITE_paper.json");
  EXPECT_EQ(b.manifest_digest, SuiteDigest(m));
  EXPECT_EQ(b.solvers,
            (std::vector<std::string>{"dist-det", "dist-rand", "dist-khan"}));

  std::vector<std::pair<std::string, std::string>> want;  // (case, instance)
  for (const int pieces : {1, 2, 4, 8}) {
    want.push_back({"subdiv[pieces=" + std::to_string(pieces) + "]", "fixed"});
  }
  for (const int len : {16, 32, 64, 128}) {
    want.push_back({"gadget" + std::to_string(len), "ends"});
  }
  for (int k = 1; k <= 8; ++k) {
    want.push_back({"cycle96", "clustered-k" + std::to_string(k)});
  }
  for (int k = 1; k <= 10; ++k) {
    want.push_back({"er96", "spread[k=" + std::to_string(k) + "]"});
  }
  for (const int n : {32, 64, 128, 256}) {
    want.push_back({"er-n" + std::to_string(n), "spread"});
  }
  for (const int k : {1, 2, 4, 6, 8}) {
    want.push_back({"er64", "spread[k=" + std::to_string(k) + "]"});
  }
  for (const std::string solver : {"dist-det", "dist-rand", "dist-khan"}) {
    for (const auto& [case_name, instance] : want) {
      const auto it = std::find_if(
          b.cells.begin(), b.cells.end(), [&](const SuiteCell& c) {
            return c.solver == solver && c.case_name == case_name &&
                   c.instance == instance;
          });
      ASSERT_NE(it, b.cells.end())
          << solver << " / " << case_name << " / " << instance;
      EXPECT_TRUE(it->feasible) << solver << " / " << case_name;
      EXPECT_GT(it->rounds, 0) << solver << " / " << case_name;
      EXPECT_GT(it->s, 0) << case_name;
    }
  }
  EXPECT_EQ(b.cells.size(), 3 * want.size());
}

TEST(SuiteCorpusTest, CommittedApproxBaselineHoldsThePaperBounds) {
  const std::string root = DSF_SOURCE_DIR;
  const SuiteManifest m =
      LoadSuiteManifest(root + "/scenarios/paper/approx.dsf-suite");
  const SuiteBaseline b = LoadSuiteBaseline(root + "/bench/SUITE_approx.json");
  EXPECT_EQ(b.manifest_digest, SuiteDigest(m));
  const std::vector<std::pair<std::string, double>> det = {
      {"dist-det", 0.0},           {"dist-det(eps=0.1)", 0.1},
      {"dist-det(eps=0.25)", 0.25}, {"dist-det(eps=0.5)", 0.5},
      {"dist-det(eps=1)", 1.0}};
  std::vector<std::string> roster = {"exact"};
  for (const auto& [spec, eps] : det) roster.push_back(spec);
  for (const char* spec : {"dist-rand", "dist-rand(reps=2)",
                           "dist-rand(reps=4)", "dist-rand(reps=8)",
                           "dist-khan"}) {
    roster.emplace_back(spec);
  }
  EXPECT_EQ(b.solvers, roster);

  // The exact optimum of every (case, instance); then the theorems' bounds
  // on the committed cells, independent of any re-record.
  std::map<std::pair<std::string, std::string>, long long> opt;
  for (const SuiteCell& c : b.cells) {
    EXPECT_TRUE(c.feasible) << c.solver << " / " << c.case_name;
    if (c.solver == "exact") opt[{c.case_name, c.instance}] = c.cost;
  }
  EXPECT_EQ(opt.size(), 43u);
  EXPECT_EQ(b.cells.size(), roster.size() * opt.size());
  int all_terminal = 0;
  for (const SuiteCell& c : b.cells) {
    const long long best = opt.at({c.case_name, c.instance});
    ASSERT_GT(best, 0) << c.case_name;
    EXPECT_GE(c.cost, best) << c.solver << " / " << c.case_name;
    if (c.solver != "exact") EXPECT_GT(c.rounds, 0) << c.solver;
    for (const auto& [spec, eps] : det) {
      if (c.solver != spec) continue;
      // Theorems 4.1 / 4.2: W(F) <= (2 + ε) OPT.
      EXPECT_LE(static_cast<double>(c.cost),
                (2.0 + eps) * static_cast<double>(best))
          << spec << " / " << c.case_name;
      // t = n: the moat output is an MST, which is optimal.
      if (c.case_name.rfind("e10mst14", 0) == 0) {
        EXPECT_EQ(c.cost, best) << spec << " / " << c.case_name;
        ++all_terminal;
      }
    }
  }
  EXPECT_EQ(all_terminal, 3 * static_cast<int>(det.size()));
}

// Every solver on one (case, instance) shares its seed, so
// dist-rand(reps=2N) re-runs the N repetitions of dist-rand(reps=N) and keeps
// the lightest: on the committed approx baseline its cost never rises.
TEST(SuiteCorpusTest, CommittedApproxRepetitionsNeverRaiseCost) {
  const std::string root = DSF_SOURCE_DIR;
  const SuiteBaseline b = LoadSuiteBaseline(root + "/bench/SUITE_approx.json");
  const std::string prefix = "dist-rand(reps=";
  std::map<std::pair<std::string, std::string>, std::map<int, long long>>
      cost_by_reps;
  for (const SuiteCell& c : b.cells) {
    int reps = 0;
    if (c.solver == "dist-rand") {
      reps = 1;
    } else if (c.solver.rfind(prefix, 0) == 0) {
      reps = std::stoi(c.solver.substr(prefix.size()));
    } else {
      continue;
    }
    cost_by_reps[{c.case_name, c.instance}][reps] = c.cost;
  }
  ASSERT_EQ(cost_by_reps.size(), 43u);
  int steps = 0;
  for (const auto& [key, costs] : cost_by_reps) {
    ASSERT_EQ(costs.size(), 4u) << key.first;
    for (const int reps : {1, 2, 4}) {
      EXPECT_LE(costs.at(2 * reps), costs.at(reps))
          << key.first << " / " << key.second << " reps " << reps;
      ++steps;
    }
  }
  EXPECT_EQ(steps, 129);
}

}  // namespace
}  // namespace dsf
