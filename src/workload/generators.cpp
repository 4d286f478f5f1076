#include "workload/generators.hpp"

#include <algorithm>
#include <array>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "graph/generators.hpp"
#include "lowerbounds/gadgets.hpp"

namespace dsf {

namespace {

using Kind = ParamSpec::Kind;

// Caps keep a single `generate` line from allocating the machine: the dense
// families track an n x n presence matrix, so their n is bounded tighter
// than the linear ones.
constexpr long long kMaxNodes = 1'000'000;
constexpr long long kMaxDenseNodes = 8'192;
constexpr long long kMaxWeight = 1'000'000;

// The most edges any family's parameter caps allow is power-law's n * m
// (10^6 nodes x 64 attachments; dense er and grid stay near 3.4e7, and
// geometric's ~8.4e6 edges weigh at most scale * sqrt(2)). At kMaxWeight each,
// no `generate` line can reach the total-weight cap.
static_assert(kMaxNodes * 64 * kMaxWeight < kMaxTotalWeight);

constexpr ParamSpec kSaltSpec{
    "salt", Kind::kInt,
    "replication index folded into the seed (sweep it to redraw)", 0, 0,
    1'000'000'000};

[[noreturn]] void FailFamily(std::string_view family, const std::string& what) {
  throw std::runtime_error("generator '" + std::string(family) + "': " + what);
}

// Shared cross-field check for the families with [min_w, max_w] weights.
void CheckWeightRange(std::string_view family, const ParamMap& pm) {
  if (pm.GetInt("min_w") > pm.GetInt("max_w")) {
    FailFamily(family, "min_w must be <= max_w");
  }
}

int IntParam(const ParamMap& pm, std::string_view name) {
  return static_cast<int>(pm.GetInt(name));
}

Weight WeightParam(const ParamMap& pm, std::string_view name) {
  return static_cast<Weight>(pm.GetInt(name));
}

// --- family parameter schemas & build functions ------------------------------

constexpr ParamSpec kPathParams[] = {
    {"n", Kind::kInt, "number of nodes", 32, 2, kMaxNodes},
    {"w", Kind::kInt, "edge weight", 1, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildPath(const ParamMap& pm, std::uint64_t) {
  return MakePath(IntParam(pm, "n"), WeightParam(pm, "w"));
}

constexpr ParamSpec kCycleParams[] = {
    {"n", Kind::kInt, "number of nodes", 32, 3, kMaxNodes},
    {"w", Kind::kInt, "edge weight", 1, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildCycle(const ParamMap& pm, std::uint64_t) {
  return MakeCycle(IntParam(pm, "n"), WeightParam(pm, "w"));
}

constexpr ParamSpec kStarParams[] = {
    {"n", Kind::kInt, "number of nodes (center + n-1 leaves)", 32, 2,
     kMaxNodes},
    {"w", Kind::kInt, "edge weight", 1, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildStar(const ParamMap& pm, std::uint64_t) {
  return MakeStar(IntParam(pm, "n"), WeightParam(pm, "w"));
}

constexpr ParamSpec kGridParams[] = {
    {"rows", Kind::kInt, "grid rows", 8, 1, 4096},
    {"cols", Kind::kInt, "grid columns", 8, 1, 4096},
    {"min_w", Kind::kInt, "minimum edge weight", 1, 1, kMaxWeight},
    {"max_w", Kind::kInt, "maximum edge weight", 8, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildGrid(const ParamMap& pm, std::uint64_t seed) {
  CheckWeightRange("grid", pm);
  if (pm.GetInt("rows") * pm.GetInt("cols") > kMaxNodes) {
    FailFamily("grid", "rows * cols exceeds " + std::to_string(kMaxNodes));
  }
  SplitMix64 rng(seed);
  return MakeGrid(IntParam(pm, "rows"), IntParam(pm, "cols"),
                  WeightParam(pm, "min_w"), WeightParam(pm, "max_w"), rng);
}

constexpr ParamSpec kCompleteParams[] = {
    {"n", Kind::kInt, "number of nodes", 16, 1, 1024},
    {"min_w", Kind::kInt, "minimum edge weight", 1, 1, kMaxWeight},
    {"max_w", Kind::kInt, "maximum edge weight", 8, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildComplete(const ParamMap& pm, std::uint64_t seed) {
  CheckWeightRange("complete", pm);
  SplitMix64 rng(seed);
  return MakeComplete(IntParam(pm, "n"), WeightParam(pm, "min_w"),
                      WeightParam(pm, "max_w"), rng);
}

constexpr ParamSpec kErParams[] = {
    {"n", Kind::kInt, "number of nodes", 32, 1, kMaxDenseNodes},
    {"p", Kind::kReal, "edge probability on top of a random spanning tree",
     0.1, 0.0, 1.0},
    {"min_w", Kind::kInt, "minimum edge weight", 1, 1, kMaxWeight},
    {"max_w", Kind::kInt, "maximum edge weight", 8, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildEr(const ParamMap& pm, std::uint64_t seed) {
  CheckWeightRange("er", pm);
  SplitMix64 rng(seed);
  return MakeConnectedRandom(IntParam(pm, "n"), pm.GetReal("p"),
                             WeightParam(pm, "min_w"),
                             WeightParam(pm, "max_w"), rng);
}

constexpr ParamSpec kGeometricParams[] = {
    {"n", Kind::kInt, "number of points in the unit square", 32, 1, 4096},
    {"radius", Kind::kReal, "connection radius", 0.25, 0.0, 2.0},
    {"scale", Kind::kInt, "weight = max(1, round(distance * scale))", 100, 1,
     kMaxWeight},
    kSaltSpec,
};
Graph BuildGeometric(const ParamMap& pm, std::uint64_t seed) {
  SplitMix64 rng(seed);
  return MakeRandomGeometric(IntParam(pm, "n"), pm.GetReal("radius"),
                             WeightParam(pm, "scale"), rng);
}

constexpr ParamSpec kTreeChordsParams[] = {
    {"n", Kind::kInt, "tree nodes (heap-indexed binary tree)", 31, 1,
     kMaxDenseNodes},
    {"chords", Kind::kInt, "random non-tree edges added", 8, 0, 100'000},
    {"w", Kind::kInt, "tree edge weight", 1, 1, kMaxWeight},
    {"chord_w", Kind::kInt, "chord edge weight", 1, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildTreeChords(const ParamMap& pm, std::uint64_t seed) {
  SplitMix64 rng(seed);
  return MakeTreePlusChords(IntParam(pm, "n"), IntParam(pm, "chords"),
                            WeightParam(pm, "w"), WeightParam(pm, "chord_w"),
                            rng);
}

constexpr ParamSpec kCaterpillarParams[] = {
    {"spine", Kind::kInt, "spine path length", 8, 1, 100'000},
    {"legs", Kind::kInt, "leaves per spine node", 3, 0, 1000},
    {"spine_w", Kind::kInt, "spine edge weight", 1, 1, kMaxWeight},
    {"leg_w", Kind::kInt, "leg edge weight", 1, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildCaterpillar(const ParamMap& pm, std::uint64_t) {
  if (pm.GetInt("spine") * (1 + pm.GetInt("legs")) > kMaxNodes) {
    FailFamily("caterpillar",
               "spine * (1 + legs) exceeds " + std::to_string(kMaxNodes));
  }
  return MakeCaterpillar(IntParam(pm, "spine"), IntParam(pm, "legs"),
                         WeightParam(pm, "spine_w"),
                         WeightParam(pm, "leg_w"));
}

// An ER base with every edge split into `pieces` segments: multiplies the
// shortest-path diameter s while preserving the metric shape — the workload
// behind the paper's s-sweeps (Lemma 3.4 regime). Original node ids are
// preserved as the prefix [0, n), so samplers can target base nodes via
// their `span` parameter.
constexpr ParamSpec kSubdividedErParams[] = {
    {"n", Kind::kInt, "base ER nodes (kept as ids 0..n-1)", 16, 2, 2048},
    {"p", Kind::kReal, "base ER edge probability", 0.2, 0.0, 1.0},
    {"min_w", Kind::kInt, "minimum edge weight", 1, 1, kMaxWeight},
    {"max_w", Kind::kInt, "maximum edge weight", 4, 1, kMaxWeight},
    {"pieces", Kind::kInt, "segments per base edge", 4, 1, 64},
    kSaltSpec,
};
Graph BuildSubdividedEr(const ParamMap& pm, std::uint64_t seed) {
  CheckWeightRange("subdivided-er", pm);
  SplitMix64 rng(seed);
  const Graph base =
      MakeConnectedRandom(IntParam(pm, "n"), pm.GetReal("p"),
                          WeightParam(pm, "min_w"),
                          WeightParam(pm, "max_w"), rng);
  const long long pieces = pm.GetInt("pieces");
  const long long total =
      base.NumNodes() + static_cast<long long>(base.NumEdges()) * (pieces - 1);
  if (total > kMaxNodes) {
    FailFamily("subdivided-er",
               "subdivision yields " + std::to_string(total) + " nodes (cap " +
                   std::to_string(kMaxNodes) + ")");
  }
  return SubdivideEdges(base, static_cast<int>(pieces));
}

// High-diameter expander with planted far terminal pairs: an expander core
// (cycle + random chords) with 2 * `pairs` long tail paths hanging off it.
// Pair p's endpoints are nodes 2p and 2p+1 — the id prefix [0, 2*pairs), so
// explicit instances and samplers with `span` can target them directly. Any
// endpoint-to-endpoint route crosses both tails, so planted pairs sit at
// distance >= 2 * tail while the core keeps mixing fast — the adversarial
// regime where the paper's Õ(S + sqrt(...)) round bound is dominated by the
// shortest-path diameter, not the hop diameter.
constexpr ParamSpec kExpanderFarPairsParams[] = {
    {"pairs", Kind::kInt, "planted far pairs (endpoints are ids 0..2*pairs-1)",
     4, 1, 10'000},
    {"tail", Kind::kInt, "tail path edges per endpoint", 8, 1, 10'000},
    {"core", Kind::kInt, "expander core nodes (cycle + chords)", 32, 3,
     kMaxDenseNodes},
    {"chords", Kind::kInt, "random chords added to the core cycle", 48, 0,
     100'000},
    {"w", Kind::kInt, "edge weight", 1, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildExpanderFarPairs(const ParamMap& pm, std::uint64_t seed) {
  const long long pairs = pm.GetInt("pairs");
  const long long tail = pm.GetInt("tail");
  const long long core = pm.GetInt("core");
  const long long endpoints = 2 * pairs;
  // Endpoint e owns tail nodes [first_tail + e*(tail-1), ...); the core is
  // the id suffix. n = endpoints + endpoints*(tail-1) + core.
  const long long total = endpoints * tail + core;
  if (total > kMaxNodes) {
    FailFamily("expander-far-pairs",
               "2*pairs*tail + core yields " + std::to_string(total) +
                   " nodes (cap " + std::to_string(kMaxNodes) + ")");
  }
  const Weight w = WeightParam(pm, "w");
  const auto n = static_cast<int>(total);
  const auto core_base = static_cast<NodeId>(endpoints * tail);
  Graph g(n);
  // Tails: endpoint e -> tail-1 fresh nodes -> its core attach point. Attach
  // points are spread deterministically around the cycle so the planted
  // pairs load distinct core regions.
  for (long long e = 0; e < endpoints; ++e) {
    const NodeId attach =
        core_base + static_cast<NodeId>((e * core) / endpoints);
    NodeId prev = static_cast<NodeId>(e);
    for (long long j = 0; j < tail - 1; ++j) {
      const NodeId mid =
          static_cast<NodeId>(endpoints + e * (tail - 1) + j);
      g.AddEdge(prev, mid, w);
      prev = mid;
    }
    g.AddEdge(prev, attach, w);
  }
  // Core: cycle + `chords` distinct random chords (no self-loops, no
  // duplicates of cycle or earlier chords).
  std::set<std::pair<NodeId, NodeId>> seen;
  for (long long i = 0; i < core; ++i) {
    const NodeId u = core_base + static_cast<NodeId>(i);
    const NodeId v = core_base + static_cast<NodeId>((i + 1) % core);
    if (u != v) {
      const auto key = std::minmax(u, v);
      if (seen.insert({key.first, key.second}).second) g.AddEdge(u, v, w);
    }
  }
  SplitMix64 rng(seed);
  const long long want = pm.GetInt("chords");
  const long long distinct_pairs = core * (core - 1) / 2;
  long long added = 0;
  // The draw saturates when the core is small; stop once every pair exists.
  while (added < want &&
         static_cast<long long>(seen.size()) < distinct_pairs) {
    const NodeId u =
        core_base + static_cast<NodeId>(rng.NextBelow(
                        static_cast<std::uint64_t>(core)));
    const NodeId v =
        core_base + static_cast<NodeId>(rng.NextBelow(
                        static_cast<std::uint64_t>(core)));
    if (u == v) continue;
    const auto key = std::minmax(u, v);
    if (!seen.insert({key.first, key.second}).second) continue;
    g.AddEdge(u, v, w);
    ++added;
  }
  g.Finalize();
  return g;
}

// Power-law / preferential-attachment graph (Barabási–Albert shape): node i
// joins by connecting to up to `m` distinct earlier nodes, each drawn as a
// uniformly random endpoint of an existing edge (degree-proportional), so
// hub degrees grow heavy-tailed. Connected by construction; weights uniform
// in [min_w, max_w].
constexpr ParamSpec kPowerLawParams[] = {
    {"n", Kind::kInt, "number of nodes", 64, 2, kMaxNodes},
    {"m", Kind::kInt, "attachment edges per new node", 2, 1, 64},
    {"min_w", Kind::kInt, "minimum edge weight", 1, 1, kMaxWeight},
    {"max_w", Kind::kInt, "maximum edge weight", 8, 1, kMaxWeight},
    kSaltSpec,
};
Graph BuildPowerLaw(const ParamMap& pm, std::uint64_t seed) {
  CheckWeightRange("power-law", pm);
  const int n = IntParam(pm, "n");
  const int m = IntParam(pm, "m");
  const Weight min_w = WeightParam(pm, "min_w");
  const Weight max_w = WeightParam(pm, "max_w");
  SplitMix64 rng(seed);
  Graph g(n);
  // Every edge endpoint, duplicated by multiplicity: drawing uniformly from
  // this vector is exactly degree-proportional sampling.
  std::vector<NodeId> endpoints;
  endpoints.reserve(static_cast<std::size_t>(2 * m) *
                    static_cast<std::size_t>(n));
  std::vector<NodeId> targets;
  for (NodeId v = 1; v < n; ++v) {
    targets.clear();
    const int want = std::min<int>(m, v);
    while (static_cast<int>(targets.size()) < want) {
      // The first edge of the whole graph has no endpoint pool yet; seed the
      // draw uniformly. Re-draws on collision terminate quickly because
      // want <= v distinct targets always exist among v older nodes.
      NodeId t = endpoints.empty()
                     ? static_cast<NodeId>(rng.NextBelow(
                           static_cast<std::uint64_t>(v)))
                     : endpoints[static_cast<std::size_t>(rng.NextBelow(
                           endpoints.size()))];
      if (std::find(targets.begin(), targets.end(), t) != targets.end()) {
        // Collision: fall back to a uniform draw so tiny prefixes (where
        // the hub owns nearly every endpoint slot) cannot spin.
        t = static_cast<NodeId>(rng.NextBelow(
            static_cast<std::uint64_t>(v)));
        if (std::find(targets.begin(), targets.end(), t) != targets.end()) {
          continue;
        }
      }
      targets.push_back(t);
    }
    for (const NodeId t : targets) {
      g.AddEdge(v, t, static_cast<Weight>(rng.NextInt(min_w, max_w)));
      endpoints.push_back(v);
      endpoints.push_back(t);
    }
  }
  g.Finalize();
  return g;
}

// The Lemma 3.4 path gadget (lowerbounds/gadgets.hpp): a unit-weight path
// 0-1-...-len plus a hub (id len + 1) joined to every 4th path node by
// edges of weight 2 * len. s = len while D stays 6 (for len >= 12): the
// regime where the Omega(min{s, sqrt(n)}) bound bites. Its terminals, 0 and
// len, belong in an explicit `ic` block.
constexpr ParamSpec kLbPathParams[] = {
    {"len", Kind::kInt, "path edges between the terminals 0 and len", 32, 2,
     kMaxNodes - 2},
    kSaltSpec,
};
Graph BuildLbPath(const ParamMap& pm, std::uint64_t) {
  return BuildPathGadget(IntParam(pm, "len"), 4).graph;
}

// Canonical registration order — also the order Names() reports and
// `dsf --list-generators` prints.
constexpr std::array<GeneratorFamily, 13> kFamilies{{
    {"path", "path 0-1-...-(n-1), uniform weight", kPathParams, BuildPath},
    {"cycle", "cycle on n nodes, uniform weight", kCycleParams, BuildCycle},
    {"star", "star: center 0 with n-1 leaves", kStarParams, BuildStar},
    {"grid", "rows x cols grid, weights uniform in [min_w, max_w]",
     kGridParams, BuildGrid},
    {"complete", "complete graph K_n, weights uniform in [min_w, max_w]",
     kCompleteParams, BuildComplete},
    {"er", "connected Erdos-Renyi: random spanning tree + G(n, p) edges",
     kErParams, BuildEr},
    {"geometric", "random geometric graph in the unit square", kGeometricParams,
     BuildGeometric},
    {"tree-chords", "balanced binary tree plus random chords",
     kTreeChordsParams, BuildTreeChords},
    {"caterpillar", "spine path with `legs` leaves per spine node",
     kCaterpillarParams, BuildCaterpillar},
    {"subdivided-er", "ER base with every edge split into `pieces` segments",
     kSubdividedErParams, BuildSubdividedEr},
    {"expander-far-pairs",
     "expander core with planted far pairs on long tails (ids 0..2*pairs-1)",
     kExpanderFarPairsParams, BuildExpanderFarPairs},
    {"power-law",
     "preferential-attachment graph: node i joins `m` degree-biased targets",
     kPowerLawParams, BuildPowerLaw},
    {"lb-path",
     "Lemma 3.4 path gadget: path 0..len plus a hub on every 4th node",
     kLbPathParams, BuildLbPath},
}};

}  // namespace

const GeneratorFamily* GeneratorRegistry::Find(std::string_view name) noexcept {
  for (const GeneratorFamily& f : kFamilies) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const GeneratorFamily& GeneratorRegistry::Get(std::string_view name) {
  const GeneratorFamily* f = Find(name);
  if (f == nullptr) {
    std::ostringstream os;
    os << "unknown generator '" << name << "'; registered:";
    for (const GeneratorFamily& k : kFamilies) os << " " << k.name;
    throw std::runtime_error(os.str());
  }
  return *f;
}

std::vector<std::string_view> GeneratorRegistry::Names() {
  std::vector<std::string_view> names;
  names.reserve(kFamilies.size());
  for (const GeneratorFamily& f : kFamilies) names.push_back(f.name);
  return names;
}

ParamMap ValidateGeneratorParams(
    const GeneratorFamily& family,
    std::span<const std::pair<std::string, std::string>> raw) {
  return ValidateParams(family.name, family.params, raw);
}

Graph BuildGenerator(const GeneratorFamily& family, const ParamMap& pm,
                     std::uint64_t seed) {
  // salt == 0 (the default) leaves the seed untouched, so plain builds are
  // unaffected by the replication mechanism.
  const auto salt = static_cast<std::uint64_t>(pm.GetInt("salt"));
  return family.build(pm, salt == 0 ? seed : DeriveSeed(seed, salt));
}

Graph BuildGenerator(std::string_view family,
                     std::span<const std::pair<std::string, std::string>> raw,
                     std::uint64_t seed) {
  const GeneratorFamily& f = GeneratorRegistry::Get(family);
  return BuildGenerator(f, ValidateGeneratorParams(f, raw), seed);
}

}  // namespace dsf
