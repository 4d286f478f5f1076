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
