#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "cli/json.hpp"
#include "common/random.hpp"

namespace perfbench {

namespace {

// Salts keep the seeded streams of unrelated script parts apart.
constexpr std::uint64_t kColdSalt = 0x636f6c64;   // "cold"
constexpr std::uint64_t kChainSalt = 0x636861696e; // "chain"
constexpr std::uint64_t kHotSalt = 0x686f74;       // "hot"
constexpr std::uint64_t kEpochSalt = 0x65706f6368; // "epoch"
constexpr std::uint64_t kOrderSalt = 0x6f72646572; // "order"

constexpr std::array<const char*, 4> kCentralSolvers = {
    "gw-moat", "greedy-merge", "mst-prune", "local-search"};

enum class Family { kGrid, kGeometric, kPowerLaw };

// Node count of a family at ladder parameter `size` (grid side or n).
int NodeCount(Family f, int size) {
  return f == Family::kGrid ? size * size : size;
}

// One `generate` directive. Geometric graphs get a radius for an expected
// degree of about 10; the generator stitches any leftover components, so
// every graph here is connected.
std::string GenerateLine(Family f, int size) {
  char buf[160];
  switch (f) {
    case Family::kGrid:
      std::snprintf(buf, sizeof buf,
                    "generate grid rows=%d cols=%d min_w=1 max_w=16", size,
                    size);
      break;
    case Family::kGeometric:
      std::snprintf(buf, sizeof buf,
                    "generate geometric n=%d radius=%.4f scale=100", size,
                    std::sqrt(10.0 / (3.14159265358979 * size)));
      break;
    case Family::kPowerLaw:
      std::snprintf(buf, sizeof buf,
                    "generate power-law n=%d m=2 min_w=1 max_w=16", size);
      break;
  }
  return buf;
}

// serve-mix cold-solve ladder, n ~ 1k-4k per family.
int ColdSize(Family f, int step) {
  constexpr std::array<int, 5> kGridSides = {32, 40, 48, 56, 64};
  constexpr std::array<int, 5> kNodes = {1000, 1600, 2300, 3100, 4000};
  return f == Family::kGrid ? kGridSides[static_cast<std::size_t>(step)]
                            : kNodes[static_cast<std::size_t>(step)];
}

// Block layout: B = cold local-search base of the block's revise chain,
// E = the block's epoch item (shared by every connection, so concurrent
// connections coalesce on it), H = hot-set repeat, C = cold solve, R =
// revise of the chain. Per block: 10 duplicates (E + 9 H), as in
// bench_serve's 50%-duplicate acceptance load; the other half split evenly
// between cold solves (B + 4 C) and revises (5 R), as BM_ChurnRevise pairs
// each churned state's warm revise with one cold solve.
constexpr char kBlock[] = "BEHRHCHRHCHRHCHRHCHR";
static_assert(sizeof(kBlock) - 1 == kBlockOps);

struct HotItem {
  Family family;
  int size;
  const char* solver;
};
// Four hot specs, as bench_serve's hot set: one per solver, every family.
constexpr std::array<HotItem, 4> kHotSet = {{
    {Family::kGrid, 48, "gw-moat"},
    {Family::kGeometric, 2000, "greedy-merge"},
    {Family::kPowerLaw, 3000, "mst-prune"},
    {Family::kGrid, 40, "local-search"},
}};

std::uint64_t OpUid(int conn, long index) {
  return (static_cast<std::uint64_t>(conn) << 40) ^
         static_cast<std::uint64_t>(index);
}

std::string SampledSpec(const std::string& generate, const char* name, int k,
                        int tpc) {
  std::ostringstream os;
  os << generate << "\nsample random-ic " << name << " k=" << k
     << " tpc=" << tpc << "\n";
  return os.str();
}

std::string ExplicitSpec(const std::string& generate,
                         const std::map<dsf::NodeId, dsf::Label>& terminals) {
  std::ostringstream os;
  os << generate << "\nic chain\n";
  for (const auto& [v, l] : terminals) os << "terminal " << v << ' ' << l << "\n";
  return os.str();
}

// The revise chain of block `block`: its base instance and one single-edit
// delta per revise, each chosen against the instance the previous edits
// left behind. Kept under 25% of the base's 16 terminals, so every revise
// is eligible for the warm path.
struct Chain {
  Family family = Family::kGrid;
  int size = 0;
  std::uint64_t seed = 1;
  std::vector<std::map<dsf::NodeId, dsf::Label>> states;  // [0] = base
  std::vector<dsf::InstanceDelta> deltas;                 // deltas[j]: states[j] -> states[j+1]
};

Chain MakeChain(std::uint64_t seed, int conn, long block, int revises) {
  Chain chain;
  chain.family = static_cast<Family>((block + conn) % 3);
  chain.size = ColdSize(chain.family, static_cast<int>((block * 2 + conn) % 5));
  chain.seed = dsf::DeriveSeed(dsf::DeriveSeed(seed ^ kChainSalt, OpUid(conn, 0)),
                               static_cast<std::uint64_t>(block));
  dsf::SplitMix64 rng(chain.seed);
  const int n = NodeCount(chain.family, chain.size);
  std::map<dsf::NodeId, dsf::Label> state;
  for (dsf::Label label = 1; label <= 4; ++label) {
    for (int t = 0; t < 4;) {
      const auto v = static_cast<dsf::NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n)));
      if (state.emplace(v, label).second) ++t;
    }
  }
  chain.states.push_back(state);
  for (int j = 0; j < revises; ++j) {
    dsf::InstanceDelta delta;
    std::map<dsf::Label, int> per_label;
    for (const auto& [v, l] : state) ++per_label[l];
    std::vector<dsf::NodeId> removable;
    for (const auto& [v, l] : state) {
      if (per_label[l] >= 3) removable.push_back(v);
    }
    if (j % 2 == 1 && !removable.empty()) {
      const dsf::NodeId v =
          removable[static_cast<std::size_t>(rng.NextBelow(removable.size()))];
      delta.remove_terminals.push_back(v);
      state.erase(v);
    } else {
      dsf::NodeId v = 0;
      do {
        v = static_cast<dsf::NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n)));
      } while (state.count(v) != 0);
      const auto l = static_cast<dsf::Label>(1 + rng.NextBelow(4));
      delta.add_terminals.push_back({v, l});
      state.emplace(v, l);
    }
    chain.deltas.push_back(delta);
    chain.states.push_back(state);
  }
  return chain;
}

}  // namespace

ServeOp MakeServeOp(std::uint64_t seed, int conn, long index) {
  const long block = index / kBlockOps;
  const int pos = static_cast<int>(index % kBlockOps);
  const char slot = kBlock[pos];
  // Ordinal of this slot's kind within the block.
  int ordinal = 0;
  for (int p = 0; p < pos; ++p) ordinal += kBlock[p] == slot ? 1 : 0;

  ServeOp op;
  switch (slot) {
    case 'B':
    case 'R': {
      // Revise number `ordinal` applies delta `ordinal` to the state the
      // earlier ones left.
      const Chain chain = MakeChain(seed, conn, block, slot == 'R' ? ordinal + 1 : 0);
      const std::string generate = GenerateLine(chain.family, chain.size);
      op.solver = "local-search";
      op.seed = chain.seed;
      if (slot == 'B') {
        op.kind = ServeOp::Kind::kCold;
        op.spec = ExplicitSpec(generate, chain.states[0]);
        break;
      }
      op.kind = ServeOp::Kind::kRevise;
      op.spec = ExplicitSpec(generate, chain.states[static_cast<std::size_t>(ordinal)]);
      op.delta = chain.deltas[static_cast<std::size_t>(ordinal)];
      // The previous link of the chain: B for the first revise.
      int prev = pos - 1;
      while (kBlock[prev] != 'R' && kBlock[prev] != 'B') --prev;
      op.base_op = block * kBlockOps + prev;
      break;
    }
    case 'E': {
      op.kind = ServeOp::Kind::kHot;
      op.solver = "gw-moat";
      op.seed = dsf::DeriveSeed(seed ^ kEpochSalt, static_cast<std::uint64_t>(block));
      op.spec = SampledSpec(GenerateLine(Family::kGrid, 24), "epoch", 3, 2);
      break;
    }
    case 'H': {
      const std::size_t h = static_cast<std::size_t>(
          (block * 11 + ordinal + conn * 3) % static_cast<long>(kHotSet.size()));
      const HotItem& item = kHotSet[h];
      op.kind = ServeOp::Kind::kHot;
      op.solver = item.solver;
      op.seed = dsf::DeriveSeed(seed ^ kHotSalt, h);
      op.spec = SampledSpec(GenerateLine(item.family, item.size), "hot", 3, 3);
      break;
    }
    case 'C': {
      const auto family = static_cast<Family>((block + ordinal + conn) % 3);
      const int size =
          ColdSize(family, static_cast<int>((block + 2 * ordinal + 3 * conn) % 5));
      op.kind = ServeOp::Kind::kCold;
      op.solver = kCentralSolvers[static_cast<std::size_t>((block + ordinal + conn) % 4)];
      op.seed = dsf::DeriveSeed(seed ^ kColdSalt, OpUid(conn, index));
      dsf::SplitMix64 rng(op.seed);
      const int k = static_cast<int>(rng.NextInt(3, 6));
      const int tpc = static_cast<int>(rng.NextInt(2, 4));
      op.spec = SampledSpec(GenerateLine(family, size), "cold", k, tpc);
      break;
    }
    default:
      break;
  }
  return op;
}

std::string RequestLine(const ServeOp& op, const std::string& base_key) {
  std::ostringstream os;
  dsf::JsonWriter json(os);
  json.BeginObject();
  json.Key("op");
  json.String(op.kind == ServeOp::Kind::kRevise ? "revise" : "solve");
  json.Key("spec");
  json.String(op.spec);
  json.Key("solvers");
  json.BeginArray();
  json.String(op.solver);
  json.EndArray();
  json.Key("seed");
  json.UInt(op.seed);
  if (op.kind == ServeOp::Kind::kRevise) {
    json.Key("base");
    json.String(base_key);
    json.Key("delta");
    json.BeginObject();
    if (!op.delta.add_terminals.empty()) {
      json.Key("add_terminals");
      json.BeginArray();
      for (const auto& [v, l] : op.delta.add_terminals) {
        json.BeginArray();
        json.Int(v);
        json.Int(l);
        json.EndArray();
      }
      json.EndArray();
    }
    if (!op.delta.remove_terminals.empty()) {
      json.Key("remove_terminals");
      json.BeginArray();
      for (const dsf::NodeId v : op.delta.remove_terminals) json.Int(v);
      json.EndArray();
    }
    json.EndObject();
  }
  json.EndObject();
  return os.str();
}

namespace {

// One round of a batch workload: the size ladder's cases in seeded order,
// so every seed runs the same mix of shapes on different graphs and
// terminals.
std::string RoundsSpec(std::uint64_t seed, int rounds,
                       const std::vector<std::string>& ladder,
                       const std::vector<std::string>& instances) {
  std::ostringstream os;
  os << "seed " << seed << "\n";
  dsf::SplitMix64 rng(seed ^ kOrderSalt);
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::size_t> order(ladder.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
    for (const std::size_t c : order) {
      os << ladder[c] << " as r" << r << "c" << c << "\n";
      for (const std::string& inst : instances) os << inst << "\n";
    }
  }
  return os.str();
}

}  // namespace

std::string BatchCentralSpec(std::uint64_t seed, int rounds) {
  const std::vector<std::string> ladder = {
      GenerateLine(Family::kGrid, 48),
      GenerateLine(Family::kGrid, 64),
      GenerateLine(Family::kGrid, 80),
      GenerateLine(Family::kGrid, 96),
      GenerateLine(Family::kGeometric, 2000),
      GenerateLine(Family::kGeometric, 3000),
      GenerateLine(Family::kGeometric, 4000),
      GenerateLine(Family::kPowerLaw, 4000),
      GenerateLine(Family::kPowerLaw, 6000),
      GenerateLine(Family::kPowerLaw, 8000),
      "generate expander-far-pairs pairs=8 tail=24 core=1024 chords=1536",
  };
  return RoundsSpec(seed, rounds, ladder,
                    {"sample random-ic a k=4 tpc=3", "sample random-ic b k=8 tpc=2"});
}

std::string CongestPaperSpec(std::uint64_t seed, int rounds) {
  // High shortest-path diameter (grids, subdivided ER) and low hop diameter
  // (ER, power-law), n from a few hundred to ~1.5k.
  const std::vector<std::string> ladder = {
      "generate grid rows=20 cols=20 min_w=1 max_w=8",
      "generate grid rows=28 cols=28 min_w=1 max_w=8",
      "generate grid rows=36 cols=36 min_w=1 max_w=8",
      "generate subdivided-er n=48 p=0.1 pieces=6",
      "generate subdivided-er n=64 p=0.08 pieces=6",
      "generate er n=500 p=0.012",
      "generate er n=1000 p=0.006",
      "generate power-law n=600 m=2",
      "generate power-law n=1500 m=2",
  };
  return RoundsSpec(seed, rounds, ladder,
                    {"sample random-ic k2 k=2 tpc=2", "sample random-ic k4 k=4 tpc=2",
                     "sample random-ic k8 k=8 tpc=2", "sample random-cr p3 pairs=3",
                     "sample random-cr p6 pairs=6"});
}

std::vector<std::string> BatchCentralSolvers() {
  return {kCentralSolvers.begin(), kCentralSolvers.end()};
}

std::vector<std::string> CongestPaperSolvers() {
  return {"dist-det", "dist-rand"};
}

}  // namespace perfbench
