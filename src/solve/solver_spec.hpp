// Parameterized solver specs.
//
// Everywhere a solver name is accepted — `--solvers`, the scenario
// grammar's `as` directive, the serve protocol's "solvers" array, a suite
// manifest's `solver` line — a spec may carry the solver's parameters:
//
//   <name>
//   gw-moat(eps=0.25)      dist-det(eps=0.5)   — ε of Algorithm 2, in [0, 64]
//   dist-rand(reps=4)                          — repetitions, in [1, 2^20]
//   portfolio
//   portfolio(roster=gw-moat+mst-prune+greedy-merge,mode=first,deadline_ms=50)
//
// The spec is the only way to configure a solver: `SolveOptions` carries
// pipeline knobs (pruning, deadline, threads), never a solver's own
// parameters. A key is rejected on every solver that does not read it, and
// portfolio roster members are plain registry names. Parsing CANONICALIZES
// the spec: numbers print as their shortest round-trip decimal, default
// values are dropped (`dist-det(eps=0)` is `dist-det`), and the roster is
// deduplicated and reordered into solver-registry order with the portfolio
// defaults made explicit, so every framing of the same configuration
// produces one canonical string — which is what the serve tier hashes into
// its cache key (two clients racing the same roster in different spelled
// orders share cache entries; different parameters never collide).
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

namespace dsf {

// Default portfolio roster: the sequential approximation families (the
// distributed protocols are opt-in racers — they answer "how many rounds",
// not "how fast on this box").
inline constexpr std::array<std::string_view, 4> kDefaultPortfolioRoster = {
    "gw-moat", "mst-prune", "greedy-merge", "local-search"};

struct SolverSpec {
  std::string base;                 // registry name ("portfolio" for the meta)
  double epsilon = 0.0;             // eps= (gw-moat, dist-det); 0 = Alg. 1
  int repetitions = 1;              // reps= (dist-rand); lightest run wins
  std::vector<std::string> roster;  // portfolio members, registry order
  std::string mode = "all";         // "all" (deterministic) | "first" (race)
  int deadline_ms = 0;              // anytime deadline; 0 = none

  [[nodiscard]] bool IsPortfolio() const noexcept {
    return base == "portfolio";
  }
  // Normalized text form; equal configurations stringify identically.
  [[nodiscard]] std::string Canonical() const;
};

// Parses and validates a spec. Throws std::runtime_error naming the problem
// (unknown solver, a key the solver does not read, out-of-range value, empty
// roster, parameterized or nested roster member, ...).
SolverSpec ParseSolverSpec(std::string_view text);

// Validation without exceptions: true when `text` parses; otherwise false
// with the reason in *error (when non-null).
bool IsValidSolverSpec(std::string_view text, std::string* error = nullptr);

// Splits a comma-separated list of specs WITHOUT splitting inside
// parentheses — `a,portfolio(roster=x+y,mode=all),b` yields three entries.
std::vector<std::string> SplitSolverList(std::string_view list);

}  // namespace dsf
