// The racing portfolio and its plumbing: spec parsing/canonicalization,
// CancelToken composition, the mode=all determinism contract (bit-identical
// forests across racing widths), mode=first feasibility, and the anytime
// behaviour of the cancellable solvers (DESIGN.md §3).
#include "solve/solver_spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/random.hpp"
#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "graph/generators.hpp"
#include "solve/solver.hpp"
#include "steiner/greedy.hpp"
#include "steiner/local_search.hpp"
#include "steiner/validate.hpp"
#include "workload/spec.hpp"

namespace dsf {
namespace {

constexpr const char* kDefaultCanonical =
    "portfolio(roster=gw-moat+mst-prune+greedy-merge+local-search,mode=all)";

// --- spec parsing / canonicalization ---------------------------------------

TEST(SolverSpecTest, BareNamesAreTheirOwnCanonicalForm) {
  for (const auto name : SolverRegistry::Names()) {
    if (name == "portfolio") continue;
    const SolverSpec spec = ParseSolverSpec(name);
    EXPECT_EQ(spec.base, name);
    EXPECT_FALSE(spec.IsPortfolio());
    EXPECT_TRUE(spec.roster.empty());
    EXPECT_EQ(spec.Canonical(), name);
  }
}

TEST(SolverSpecTest, BarePortfolioSpellsOutDefaults) {
  const SolverSpec spec = ParseSolverSpec("portfolio");
  EXPECT_TRUE(spec.IsPortfolio());
  EXPECT_EQ(spec.mode, "all");
  EXPECT_EQ(spec.deadline_ms, 0);
  ASSERT_EQ(spec.roster.size(), kDefaultPortfolioRoster.size());
  for (std::size_t i = 0; i < spec.roster.size(); ++i) {
    EXPECT_EQ(spec.roster[i], kDefaultPortfolioRoster[i]);
  }
  EXPECT_EQ(spec.Canonical(), kDefaultCanonical);
}

TEST(SolverSpecTest, RosterDedupesAndReordersIntoRegistryOrder) {
  // Three spellings of the same configuration must share one canonical
  // string — the serve tier hashes that string into its cache key.
  const std::string canonical =
      ParseSolverSpec("portfolio(roster=gw-moat+local-search,mode=first)")
          .Canonical();
  EXPECT_EQ(canonical, "portfolio(roster=gw-moat+local-search,mode=first)");
  EXPECT_EQ(
      ParseSolverSpec("portfolio(roster=local-search+gw-moat,mode=first)")
          .Canonical(),
      canonical);
  EXPECT_EQ(ParseSolverSpec(
                "portfolio(mode=first,roster=gw-moat+local-search+gw-moat)")
                .Canonical(),
            canonical);
}

TEST(SolverSpecTest, DeadlineRoundTripsThroughCanonical) {
  const SolverSpec spec =
      ParseSolverSpec("portfolio(roster=mst-prune,deadline_ms=50)");
  EXPECT_EQ(spec.deadline_ms, 50);
  EXPECT_EQ(spec.Canonical(),
            "portfolio(roster=mst-prune,mode=all,deadline_ms=50)");
  // Re-parsing a canonical string is a fixed point.
  EXPECT_EQ(ParseSolverSpec(spec.Canonical()).Canonical(), spec.Canonical());
}

TEST(SolverSpecTest, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",
      "nope",
      "portfolio(",
      "portfolio(roster=gw-moat",
      "exact(mode=all)",                    // params on a plain solver
      "portfolio(roster=portfolio)",        // nesting
      "portfolio(roster=gw-moat+nope)",     // unknown member
      "portfolio(roster=+gw-moat)",         // empty member
      "portfolio(mode=fastest)",            // unknown mode
      "portfolio(deadline_ms=0)",           // non-positive deadline
      "portfolio(deadline_ms=-5)",
      "portfolio(deadline_ms=soon)",
      "portfolio(speed=11)",                // unknown key
      "portfolio(roster)",                  // missing '='
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)ParseSolverSpec(text), std::runtime_error) << text;
    std::string why;
    EXPECT_FALSE(IsValidSolverSpec(text, &why)) << text;
    EXPECT_FALSE(why.empty()) << text;
  }
  EXPECT_TRUE(IsValidSolverSpec("portfolio(roster=exact,mode=first)"));
}

TEST(SolverSpecTest, ParametersCanonicalizeToShortestDecimals) {
  // Every spelling of the same ε prints one way; defaults are dropped.
  for (const char* text :
       {"dist-det(eps=0.50)", "dist-det(eps=5e-1)", "dist-det( eps = .5 )"}) {
    const SolverSpec spec = ParseSolverSpec(text);
    EXPECT_EQ(spec.epsilon, 0.5) << text;
    EXPECT_EQ(spec.Canonical(), "dist-det(eps=0.5)") << text;
  }
  EXPECT_EQ(ParseSolverSpec("dist-det(eps=0)").Canonical(), "dist-det");
  EXPECT_EQ(ParseSolverSpec("gw-moat(eps=-0)").Canonical(), "gw-moat");
  EXPECT_EQ(ParseSolverSpec("gw-moat(eps=0.1)").Canonical(), "gw-moat(eps=0.1)");
  EXPECT_EQ(ParseSolverSpec("dist-det(eps=64)").Canonical(), "dist-det(eps=64)");
  EXPECT_EQ(ParseSolverSpec("dist-rand(reps=1)").Canonical(), "dist-rand");
  EXPECT_EQ(ParseSolverSpec("dist-rand(reps=04)").Canonical(),
            "dist-rand(reps=4)");
  EXPECT_EQ(ParseSolverSpec("dist-rand(reps=1048576)").repetitions, 1 << 20);
  // Canonical strings are fixed points, down to the last bit of ε.
  for (const char* text : {"gw-moat(eps=0.1)", "dist-det(eps=1e-05)",
                           "dist-det(eps=0.30000000000000004)"}) {
    const SolverSpec spec = ParseSolverSpec(text);
    EXPECT_EQ(spec.Canonical(), text);
    EXPECT_EQ(ParseSolverSpec(spec.Canonical()).epsilon, spec.epsilon);
  }
}

TEST(SolverSpecTest, RejectsParametersASolverDoesNotRead) {
  const std::vector<std::string> bad = {
      "mst-prune(eps=1)",          // solver without parameters
      "exact(reps=2)",
      "dist-rand(eps=0.5)",        // another solver's key
      "dist-det(reps=2)",
      "gw-moat(roster=exact)",
      "dist-det(eps=1,mode=all)",
      "dist-rand(reps=0)",         // out of range
      "dist-rand(reps=1048577)",
      "dist-rand(reps=-1)",
      "dist-rand(reps=2.5)",
      "dist-rand(reps=99999999999999999999)",
      "dist-det(eps=-1)",
      "dist-det(eps=nan)",
      "dist-det(eps=inf)",
      "dist-det(eps=65)",
      "dist-det(eps=64.000001)",
      "dist-det(eps=)",
      "dist-det(eps=0.5x)",
      "dist-det(eps=1e-400)",      // underflows
      "dist-det(eps=0.5",          // unbalanced
      "nope(eps=1)",
  };
  for (const std::string& text : bad) {
    std::string why;
    EXPECT_FALSE(IsValidSolverSpec(text, &why)) << text;
    EXPECT_FALSE(why.empty()) << text;
  }
  std::string why;
  EXPECT_FALSE(IsValidSolverSpec("mst-prune(eps=1)", &why));
  EXPECT_NE(why.find("'mst-prune' takes no parameters"), std::string::npos)
      << why;
  EXPECT_FALSE(IsValidSolverSpec("dist-rand(eps=1)", &why));
  EXPECT_NE(why.find("expected reps"), std::string::npos) << why;
}

TEST(SolverSpecTest, RosterMembersCannotCarryParameters) {
  for (const char* text :
       {"portfolio(roster=dist-det(eps=0.5)+gw-moat)",
        "portfolio(roster=gw-moat+dist-rand(reps=2),mode=first)",
        "portfolio(roster=portfolio(roster=exact))"}) {
    std::string why;
    EXPECT_FALSE(IsValidSolverSpec(text, &why)) << text;
    EXPECT_NE(why.find("cannot take parameters"), std::string::npos) << why;
  }
}

TEST(SolverSpecTest, ParametersReachTheCores) {
  SplitMix64 rng(21);
  const Graph g = MakeConnectedRandom(24, 0.15, 1, 30, rng);
  const IcInstance ic =
      MakeIcInstance(24, {{0, 1}, {9, 1}, {4, 2}, {17, 2}, {12, 3}, {23, 3}});

  DetMoatOptions dopt;
  dopt.epsilon = 0.5L;
  const auto det = RunDistributedMoat(g, ic, dopt, 5);
  const SolveResult via_spec = Solve("dist-det(eps=0.5)", g, ic, {}, 5);
  std::vector<EdgeId> det_forest = det.forest;
  std::sort(det_forest.begin(), det_forest.end());
  EXPECT_EQ(via_spec.solver, "dist-det(eps=0.5)");
  EXPECT_EQ(via_spec.forest, det_forest);
  EXPECT_EQ(via_spec.phases, det.phases);
  EXPECT_EQ(via_spec.dual_lower_bound, det.dual_sum);
  EXPECT_EQ(via_spec.stats.rounds, det.stats.rounds);
  EXPECT_EQ(via_spec.stats.messages, det.stats.messages);
  // ε = 0.5 rounds the radii to checkpoints: the phase count proves the
  // parameter was not dropped on the way.
  EXPECT_NE(via_spec.phases, Solve("dist-det", g, ic, {}, 5).phases);

  RandomizedOptions ropt;
  ropt.repetitions = 4;
  const auto rand = RunRandomizedSteinerForest(g, ic, ropt, 5);
  const SolveResult rand_spec = Solve("dist-rand(reps=4)", g, ic, {}, 5);
  std::vector<EdgeId> rand_forest = rand.forest;
  std::sort(rand_forest.begin(), rand_forest.end());
  EXPECT_EQ(rand_spec.forest, rand_forest);
  EXPECT_EQ(rand_spec.stats.rounds, rand.stats.rounds);
  EXPECT_EQ(rand_spec.stats.messages, rand.stats.messages);
  EXPECT_EQ(rand_spec.stats.charged_rounds, rand.stats.charged_rounds);
  EXPECT_GT(rand_spec.stats.rounds,
            Solve("dist-rand", g, ic, {}, 5).stats.rounds);
}

TEST(SolverSpecTest, SplitSolverListIsParenAware) {
  const std::vector<std::string> parts = SplitSolverList(
      "mst-prune, portfolio(roster=gw-moat+exact,mode=first) ,exact,");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "mst-prune");
  EXPECT_EQ(parts[1], "portfolio(roster=gw-moat+exact,mode=first)");
  EXPECT_EQ(parts[2], "exact");
  EXPECT_TRUE(SplitSolverList("  ").empty());
}

// --- CancelToken -------------------------------------------------------------

TEST(CancelTokenTest, CancelFiresImmediatelyAndIdempotently) {
  CancelToken t;
  EXPECT_FALSE(t.Expired());
  EXPECT_FALSE(IsCancelled(&t));
  EXPECT_FALSE(IsCancelled(nullptr));
  t.Cancel();
  t.Cancel();
  EXPECT_TRUE(t.Expired());
  EXPECT_TRUE(IsCancelled(&t));
}

TEST(CancelTokenTest, DeadlineExpiresAndDisarms) {
  CancelToken t;
  t.SetDeadlineAfterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(t.Expired());
  // Re-arming far in the future (or disarming) clears the expiry.
  t.SetDeadlineAfterMs(0);
  EXPECT_FALSE(t.Expired());
  t.SetDeadlineAfterMs(3'600'000);
  EXPECT_FALSE(t.Expired());
}

TEST(CancelTokenTest, ParentChainsExpiry) {
  CancelToken parent;
  CancelToken child;
  child.SetParent(&parent);
  EXPECT_FALSE(child.Expired());
  parent.Cancel();
  EXPECT_TRUE(child.Expired());
  EXPECT_FALSE(parent.Expired() && false);  // parent unaffected by child
}

// --- portfolio through the pipeline -----------------------------------------

IcInstance SpreadTerminals(const Graph& g, int components, int per_component,
                           std::uint64_t seed) {
  const int n = g.NumNodes();
  SplitMix64 rng(seed * 77 + 5);
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < components; ++c) {
    for (int j = 0; j < per_component; ++j) {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n)));
      } while (used[static_cast<std::size_t>(v)]);
      used[static_cast<std::size_t>(v)] = 1;
      assign.push_back({v, static_cast<Label>(c + 1)});
    }
  }
  return MakeIcInstance(n, assign);
}

// The acceptance-criteria golden: mode=all must produce bit-identical
// forests at every racing width. Width 1 runs members inline; widths 4 and
// 8 race on a RoundPool — selection is (weight, registry index), never
// arrival order, so the outputs coincide edge for edge.
TEST(PortfolioDeterminismTest, ModeAllBitIdenticalAcrossThreads) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SplitMix64 grng(seed * 13 + 1);
    const Graph grid = MakeGrid(5, 5, 1, 9, grng);
    SplitMix64 erng(seed * 17 + 3);
    const Graph er = MakeConnectedRandom(40, 0.15, 1, 20, erng);
    for (const Graph* g : {&grid, &er}) {
      const IcInstance ic = SpreadTerminals(*g, 3, 2, seed);
      std::vector<SolveResult> runs;
      for (const int threads : {1, 4, 8}) {
        SolveOptions opt;
        opt.threads = threads;
        runs.push_back(Solve("portfolio", *g, ic, opt, seed));
      }
      for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].forest, runs[0].forest) << "seed=" << seed;
        EXPECT_EQ(runs[i].weight, runs[0].weight) << "seed=" << seed;
        EXPECT_EQ(runs[i].solver, runs[0].solver) << "seed=" << seed;
        EXPECT_EQ(runs[i].cancelled, runs[0].cancelled) << "seed=" << seed;
      }
      EXPECT_TRUE(runs[0].feasible) << "seed=" << seed;
      EXPECT_EQ(runs[0].solver, kDefaultCanonical);
    }
  }
}

TEST(PortfolioSemanticsTest, NeverWorseThanAnyRosterMember) {
  SplitMix64 rng(11);
  const Graph g = MakeConnectedRandom(36, 0.18, 1, 15, rng);
  const IcInstance ic = SpreadTerminals(g, 4, 2, 9);
  const SolveResult port = Solve(
      "portfolio(roster=gw-moat+mst-prune+greedy-merge+local-search)", g, ic);
  ASSERT_TRUE(port.feasible);
  for (const char* member :
       {"gw-moat", "mst-prune", "greedy-merge", "local-search"}) {
    EXPECT_LE(port.weight, Solve(member, g, ic).weight) << member;
  }
}

TEST(PortfolioSemanticsTest, SingleMemberRosterMatchesThatSolver) {
  SplitMix64 rng(21);
  const Graph g = MakeGrid(6, 6, 1, 11, rng);
  const IcInstance ic = SpreadTerminals(g, 3, 2, 4);
  const SolveResult alone = Solve("mst-prune", g, ic);
  const SolveResult port = Solve("portfolio(roster=mst-prune)", g, ic);
  EXPECT_EQ(port.forest, alone.forest);
  EXPECT_EQ(port.weight, alone.weight);
}

TEST(PortfolioSemanticsTest, ModeFirstReturnsAFeasibleMemberResult) {
  SplitMix64 rng(31);
  const Graph g = MakeConnectedRandom(32, 0.2, 1, 12, rng);
  const IcInstance ic = SpreadTerminals(g, 3, 2, 6);
  // Which member wins the race is timing-dependent; the result must still
  // be feasible and match SOME member's deterministic output.
  std::vector<Weight> member_weights;
  for (const char* member :
       {"gw-moat", "mst-prune", "greedy-merge", "local-search"}) {
    member_weights.push_back(Solve(member, g, ic).weight);
  }
  for (const int threads : {1, 4}) {
    SolveOptions opt;
    opt.threads = threads;
    const SolveResult res = Solve("portfolio(mode=first)", g, ic, opt, 2);
    EXPECT_TRUE(res.feasible) << "threads=" << threads;
    EXPECT_TRUE(IsFeasible(g, ic, res.forest)) << "threads=" << threads;
    EXPECT_NE(std::find(member_weights.begin(), member_weights.end(),
                        res.weight),
              member_weights.end())
        << "threads=" << threads;
  }
}

TEST(PortfolioSemanticsTest, PreCancelledSolveReportsCancelled) {
  SplitMix64 rng(41);
  const Graph g = MakeGrid(5, 5, 1, 7, rng);
  const IcInstance ic = SpreadTerminals(g, 3, 2, 8);
  CancelToken fired;
  fired.Cancel();
  for (const char* solver : {"portfolio", "greedy-merge", "gw-moat"}) {
    SolveOptions opt;
    opt.cancel = &fired;
    const SolveResult res = Solve(solver, g, ic, opt);
    EXPECT_TRUE(res.cancelled) << solver;
    EXPECT_TRUE(g.IsForest(res.forest)) << solver;  // partials stay forests
  }
}

TEST(PortfolioSemanticsTest, GenerousDeadlineDoesNotTruncate) {
  SplitMix64 rng(51);
  const Graph g = MakeGrid(5, 5, 1, 7, rng);
  const IcInstance ic = SpreadTerminals(g, 3, 2, 2);
  SolveOptions opt;
  opt.deadline_ms = 60'000;
  const SolveResult res = Solve("portfolio", g, ic, opt);
  EXPECT_FALSE(res.cancelled);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.forest, Solve("portfolio", g, ic).forest);
}

TEST(PortfolioSemanticsTest, SpecDeadlineActsLikeOptionDeadline) {
  // A deadline inside the spec string reaches the pipeline (canonical
  // result name keeps it visible) and a generous one changes nothing.
  SplitMix64 rng(61);
  const Graph g = MakeGrid(4, 4, 1, 5, rng);
  const IcInstance ic = SpreadTerminals(g, 2, 2, 3);
  const SolveResult res =
      Solve("portfolio(roster=mst-prune+gw-moat,deadline_ms=60000)", g, ic);
  EXPECT_EQ(res.solver,
            "portfolio(roster=gw-moat+mst-prune,mode=all,deadline_ms=60000)");
  EXPECT_FALSE(res.cancelled);
  EXPECT_TRUE(res.feasible);
}

// --- anytime members ---------------------------------------------------------

TEST(AnytimeSolverTest, CancelledLocalSearchKeepsFeasibleIncumbent) {
  SplitMix64 rng(71);
  const Graph g = MakeConnectedRandom(30, 0.2, 1, 18, rng);
  const IcInstance ic = SpreadTerminals(g, 3, 2, 5);
  const LocalSearchResult cold = LocalSearchSteinerForest(g, ic);
  ASSERT_TRUE(IsFeasible(g, ic, cold.forest));

  CancelToken fired;
  fired.Cancel();
  LocalSearchOptions opt;
  opt.warm_start = &cold.forest;
  opt.cancel = &fired;
  const LocalSearchResult res = LocalSearchSteinerForest(g, ic, opt);
  EXPECT_TRUE(res.cancelled);
  // The incumbent — here the untouched warm start — survives cancellation.
  EXPECT_EQ(res.forest, cold.forest);
  EXPECT_TRUE(IsFeasible(g, ic, res.forest));
}

TEST(LocalSearchTest, SwapReplacesADetourInTheWarmStart) {
  // {0, 2} and {1, 5} must be connected. The warm start is a feasible
  // spanning tree that joins 0 to 2 through the detour 0-3-4-2 (weight 12)
  // while the edge 0-1 (weight 1) reaches the same tree: removing 0-3 and
  // reconnecting through 0-1 is a strictly cheaper swap, after which 3-4
  // and 4-2 dangle and go. A no-op search returns the warm start.
  const Graph g = MakeGraph(6, {{0, 1, 1},
                                {1, 2, 1},
                                {0, 3, 4},
                                {3, 4, 4},
                                {4, 2, 4},
                                {2, 5, 2}});
  const IcInstance ic = MakeIcInstance(6, {{0, 1}, {2, 1}, {1, 2}, {5, 2}});
  const std::vector<EdgeId> warm = {1, 2, 3, 4, 5};
  ASSERT_TRUE(IsFeasible(g, ic, warm));
  ASSERT_TRUE(g.IsForest(warm));
  ASSERT_EQ(g.WeightOf(warm), 15);

  LocalSearchOptions opt;
  opt.warm_start = &warm;
  const LocalSearchResult res = LocalSearchSteinerForest(g, ic, opt);
  EXPECT_TRUE(IsFeasible(g, ic, res.forest));
  EXPECT_LT(g.WeightOf(res.forest), g.WeightOf(warm));
  EXPECT_GT(res.moves, 0);
  // Here the local optimum is the optimum: 0-1, 1-2, 2-5.
  EXPECT_EQ(res.forest, (std::vector<EdgeId>{0, 1, 5}));
}

TEST(AnytimeSolverTest, CancelledGreedyReturnsPartialForest) {
  SplitMix64 rng(81);
  const Graph g = MakeConnectedRandom(30, 0.2, 1, 18, rng);
  const IcInstance ic = SpreadTerminals(g, 3, 2, 7);
  CancelToken fired;
  fired.Cancel();
  GreedyOptions opt;
  opt.cancel = &fired;
  const GreedyResult res = GluttonousSteinerForest(g, ic, opt);
  EXPECT_TRUE(res.cancelled);
  EXPECT_TRUE(g.IsForest(res.forest));
}

// --- workload `as` directive -------------------------------------------------

WorkloadSpec ParseSpecText(const std::string& text) {
  std::istringstream in(text);
  return ParseWorkloadSpec(in, "<string>");
}

TEST(WorkloadAsDirectiveTest, ParsesAndValidatesSolverSpecs) {
  const WorkloadSpec spec = ParseSpecText(
      "seed 7\n"
      "as portfolio(roster=local-search+gw-moat,mode=all) mst-prune\n"
      "generate grid rows=3 cols=3\n"
      "sample random-ic a k=2 tpc=2\n");
  ASSERT_EQ(spec.solvers.size(), 2u);
  // Stored verbatim; canonicalization happens where the list is consumed.
  EXPECT_EQ(spec.solvers[0],
            "portfolio(roster=local-search+gw-moat,mode=all)");
  EXPECT_EQ(spec.solvers[1], "mst-prune");
}

// --- latency-aware start order (mode=first) ---------------------------------

TEST(PortfolioStartOrderTest, HintedMembersLeadByAscendingP50) {
  const std::vector<std::string> roster = {"gw-moat", "mst-prune",
                                           "greedy-merge", "local-search"};
  const std::vector<std::pair<std::string, double>> hints = {
      {"greedy-merge", 0.2}, {"gw-moat", 5.0}, {"local-search", 1.5}};
  const std::vector<int> order = PortfolioStartOrder(roster, hints);
  // greedy-merge (0.2) first, then local-search (1.5), then gw-moat (5.0);
  // unhinted mst-prune trails in roster order.
  EXPECT_EQ(order, (std::vector<int>{2, 3, 0, 1}));
}

TEST(PortfolioStartOrderTest, NoHintsKeepsRosterOrder) {
  const std::vector<std::string> roster = {"gw-moat", "mst-prune",
                                           "local-search"};
  EXPECT_EQ(PortfolioStartOrder(roster, {}),
            (std::vector<int>{0, 1, 2}));
  // Hints naming no roster member are equivalent to no hints.
  const std::vector<std::pair<std::string, double>> strangers = {
      {"exact", 0.1}};
  EXPECT_EQ(PortfolioStartOrder(roster, strangers),
            (std::vector<int>{0, 1, 2}));
}

TEST(PortfolioStartOrderTest, TiesAndPartialHintsAreStable) {
  const std::vector<std::string> roster = {"a", "b", "c", "d"};
  // Equal p50s keep roster order among themselves (stable sort).
  const std::vector<std::pair<std::string, double>> tied = {
      {"c", 1.0}, {"b", 1.0}};
  EXPECT_EQ(PortfolioStartOrder(roster, tied),
            (std::vector<int>{1, 2, 0, 3}));
}

TEST(PortfolioStartOrderTest, HintsNeverChangeTheAnswerOnlyTheStart) {
  // mode=first with hints still returns a feasible result; mode=all with
  // hints is bit-identical to mode=all without (hints are ignored there).
  SplitMix64 rng(77);
  const Graph g = MakeGrid(6, 6, 1, 5, rng);
  const IcInstance ic =
      MakeIcInstance(36, {{0, 1}, {35, 1}, {5, 2}, {30, 2}});
  SolveOptions plain;
  SolveOptions hinted;
  hinted.latency_hints = {{"local-search", 0.1}, {"gw-moat", 9.0}};
  const SolveResult all_plain = Solve("portfolio(mode=all)", g, ic, plain, 3);
  const SolveResult all_hinted =
      Solve("portfolio(mode=all)", g, ic, hinted, 3);
  EXPECT_EQ(all_plain.forest, all_hinted.forest);
  EXPECT_EQ(all_plain.weight, all_hinted.weight);
  const SolveResult first_hinted =
      Solve("portfolio(mode=first)", g, ic, hinted, 3);
  EXPECT_TRUE(first_hinted.feasible);
}

TEST(WorkloadAsDirectiveTest, RejectsMisplacedOrBadDirectives) {
  const std::vector<std::string> bad = {
      // after the first graph source
      "seed 7\ngenerate grid rows=3 cols=3\nas exact\n"
      "sample random-ic a k=2 tpc=2\n",
      // duplicate
      "seed 7\nas exact\nas mst-prune\n"
      "generate grid rows=3 cols=3\nsample random-ic a k=2 tpc=2\n",
      // empty
      "seed 7\nas\n"
      "generate grid rows=3 cols=3\nsample random-ic a k=2 tpc=2\n",
      // invalid spec
      "seed 7\nas portfolio(roster=nope)\n"
      "generate grid rows=3 cols=3\nsample random-ic a k=2 tpc=2\n",
  };
  for (const std::string& text : bad) {
    EXPECT_THROW((void)ParseSpecText(text), std::runtime_error) << text;
  }
}

}  // namespace
}  // namespace dsf
