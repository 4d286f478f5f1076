// Golden-stats regression tests: the simulator's bit-reproducibility
// contract (DESIGN.md §2/§8). The pinned numbers below were captured from
// the pre-refactor simulator (O(m)-allocation rounds, adjacency-scan
// delivery, tick-everyone scheduling); the rearchitected hot loop — mirror
// incidence, dirty-list accounting, active-set scheduling — must reproduce
// every one of them exactly. A drift in rounds, messages, bits, or the
// marked-edge set is a correctness bug, not a tuning artifact.
#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/random.hpp"
#include "congest/network.hpp"
#include "dist/det_moat.hpp"
#include "dist/randomized.hpp"
#include "dist/transform.hpp"
#include "graph/generators.hpp"
#include "steiner/instance.hpp"

namespace dsf {
namespace {

IcInstance SpreadTerminals(int n, int k, SplitMix64& rng) {
  std::vector<std::pair<NodeId, Label>> assign;
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < 2; ++j) {
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

void ExpectStats(const RunStats& s, long rounds, long messages,
                 long total_bits, long max_bits, long charged, long phases) {
  EXPECT_EQ(s.rounds, rounds);
  EXPECT_EQ(s.messages, messages);
  EXPECT_EQ(s.total_bits, total_bits);
  EXPECT_EQ(s.max_bits_per_edge_round, max_bits);
  EXPECT_EQ(s.cut_bits, 0);
  EXPECT_EQ(s.cut_messages, 0);
  EXPECT_EQ(s.charged_rounds, charged);
  EXPECT_EQ(s.phases, phases);
  EXPECT_FALSE(s.hit_round_limit);
}

// Deterministic run: the moat-growing protocol on a fixed random topology.
TEST(NetworkGoldenTest, DeterministicMoatPinned) {
  SplitMix64 rng(7);
  const Graph g = MakeConnectedRandom(24, 0.2, 1, 16, rng);
  const IcInstance ic = SpreadTerminals(24, 3, rng);
  ASSERT_EQ(g.NumEdges(), 75);

  const auto res = RunDistributedMoat(g, ic, {}, 5);
  ExpectStats(res.stats, /*rounds=*/68, /*messages=*/1916,
              /*total_bits=*/35828, /*max_bits=*/120, /*charged=*/0,
              /*phases=*/1);
  EXPECT_EQ(res.raw_forest, (std::vector<EdgeId>{9, 25, 52, 50, 20, 6, 43}));
  EXPECT_EQ(res.forest, (std::vector<EdgeId>{6, 9, 20, 25, 43, 50, 52}));
  EXPECT_EQ(res.dual_sum, 135168);
  EXPECT_EQ(res.phases, 1);
}

// Randomized run: per-node RNG streams, embedding ranks, and token routing.
TEST(NetworkGoldenTest, RandomizedPinned) {
  SplitMix64 rng(11);
  const Graph g = MakeConnectedRandom(20, 0.25, 1, 12, rng);
  const IcInstance ic = SpreadTerminals(20, 2, rng);
  ASSERT_EQ(g.NumEdges(), 52);

  const auto res = RunRandomizedSteinerForest(g, ic, {}, 9);
  ExpectStats(res.stats, /*rounds=*/47, /*messages=*/816,
              /*total_bits=*/36595, /*max_bits=*/175, /*charged=*/10,
              /*phases=*/0);
  EXPECT_EQ(res.forest, (std::vector<EdgeId>{1, 4, 12, 18, 20, 27, 28, 33}));
  EXPECT_EQ(res.le_rounds, 17);
  EXPECT_EQ(res.reduced_terminals, 0);
}

// The two input transforms (Lemmas 2.3 / 2.4) on the ER n = 80, D = 5
// family of test_transform.cpp's round budgets. Captured under both the
// tick-everyone and the active-set schedule, which agreed field for field.
TEST(NetworkGoldenTest, TransformsPinned) {
  constexpr int kN = 80;
  {
    SplitMix64 rng(1234);
    const Graph g = MakeConnectedRandom(kN, 0.06, 1, 9, rng);
    ASSERT_EQ(g.NumEdges(), 245);
    SplitMix64 prng(16);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < 16; ++i) {
      const auto u = static_cast<NodeId>(prng.NextBelow(kN));
      const auto v = static_cast<NodeId>(prng.NextBelow(kN));
      if (u != v) pairs.push_back({u, v});
    }
    const auto res = RunDistributedCrToIc(g, MakeCrInstance(kN, pairs));
    ExpectStats(res.stats, /*rounds=*/48, /*messages=*/2553,
                /*total_bits=*/48538, /*max_bits=*/79, /*charged=*/0,
                /*phases=*/0);
    EXPECT_EQ(res.instance.labels,
              MakeIcInstance(kN, {{5, 5},   {9, 9},   {15, 15}, {17, 15},
                                  {23, 15}, {25, 15}, {26, 9},  {28, 5},
                                  {33, 33}, {36, 36}, {43, 15}, {44, 33},
                                  {45, 5},  {46, 33}, {54, 5},  {55, 15},
                                  {62, 36}, {68, 9},  {72, 15}, {75, 5},
                                  {77, 5}})
                  .labels);
  }
  {
    SplitMix64 rng(777);
    const Graph g = MakeConnectedRandom(kN, 0.06, 1, 9, rng);
    ASSERT_EQ(g.NumEdges(), 241);
    // Components 1, 3, 5, 7 hold two terminals; the even ones are
    // singletons, which the transform drops.
    SplitMix64 trng(40);
    std::vector<std::pair<NodeId, Label>> assign;
    std::vector<char> used(kN, 0);
    const auto fresh = [&] {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(trng.NextBelow(kN));
      } while (used[static_cast<std::size_t>(v)]);
      used[static_cast<std::size_t>(v)] = 1;
      return v;
    };
    for (Label c = 1; c <= 8; ++c) {
      assign.push_back({fresh(), c});
      if (c % 2 == 1) assign.push_back({fresh(), c});
    }
    const auto res = RunDistributedMakeMinimal(g, MakeIcInstance(kN, assign));
    ExpectStats(res.stats, /*rounds=*/22, /*messages=*/1125,
                /*total_bits=*/16689, /*max_bits=*/78, /*charged=*/0,
                /*phases=*/0);
    EXPECT_EQ(res.instance.labels,
              MakeIcInstance(kN, {{11, 1}, {18, 1}, {24, 7}, {26, 5}, {33, 7},
                                  {50, 5}, {58, 3}, {68, 3}})
                  .labels);
  }
}

// A program that exercises RNG draws, marking/unmarking, and irregular
// sending — no protocol scaffolding in the way — pinned to absolute values.
class ChurnProgram : public NodeProgram {
 public:
  explicit ChurnProgram(NodeId id) : id_(id) {}

  void OnRound(NodeApi& api) override {
    if (api.Round() >= 12) {
      done_ = true;
      return;
    }
    const auto draw = api.Rng().Next();
    const int deg = api.Degree();
    if (deg == 0) return;
    const int local = static_cast<int>(draw % static_cast<std::uint64_t>(deg));
    if (draw % 3 == 0) {
      api.Send(local, Message{kChApp, {static_cast<std::int64_t>(draw & 0xff),
                                       id_, api.Round()}});
    }
    if (draw % 5 == 0) api.MarkEdge(local);
    if (draw % 7 == 0) api.UnmarkEdge(local);
    for (const auto& d : api.Inbox()) {
      if (d.msg.fields[0] % 2 == 0) api.MarkEdge(d.from_local);
    }
  }
  [[nodiscard]] bool Done() const override { return done_; }

 private:
  NodeId id_;
  bool done_ = false;
};

TEST(NetworkGoldenTest, ChurnProgramPinned) {
  SplitMix64 rng(21);
  const Graph g = MakeConnectedRandom(40, 0.12, 1, 9, rng);
  StaticKnowledge known;
  known.n = g.NumNodes();
  known.diameter_bound = 10;

  Network net(g, known, /*seed=*/77);
  net.Start([](NodeId v) { return std::make_unique<ChurnProgram>(v); });
  const RunStats stats = net.Run(100);
  // Mark/unmark races between the two endpoints of an edge resolve in node
  // order, so the final edge set is pinned exactly.
  ExpectStats(stats, /*rounds=*/13, /*messages=*/152, /*total_bits=*/3662,
              /*max_bits=*/28, /*charged=*/0, /*phases=*/0);
  const std::vector<EdgeId> want_marked{
      0,   1,   2,   4,   5,   7,   8,   10,  12,  14,  15,  17,  21,
      22,  23,  25,  26,  27,  28,  29,  30,  32,  33,  34,  35,  36,
      37,  38,  42,  44,  45,  46,  47,  48,  51,  53,  54,  55,  57,
      61,  63,  67,  68,  69,  71,  77,  83,  84,  85,  87,  90,  91,
      92,  95,  97,  98,  102, 105, 106, 107, 109, 110, 111, 112, 117,
      118, 119, 120, 121, 122, 124, 126, 128, 131};
  EXPECT_EQ(net.MarkedEdges(), want_marked);
}

// Arena-delivery golden: a program that hammers exactly the surfaces the
// per-round message arena owns — several messages per edge per round across
// application and scaffolding channels (the latter exempt from app-activity
// tracking), payload widths from empty to the FieldList capacity, extreme
// field values, and mark/unmark churn — while folding every delivery, in
// inbox order, into a running checksum. The pinned RunStats and checksum
// were captured from the pre-arena simulator (per-node inbox vectors,
// recycled outboxes); the SoA arena with prefix-sum receiver offsets must
// reproduce them bit for bit: any change to
// delivery order, payload bytes, accounting, or activity tracking moves the
// checksum.
class ArenaStressProgram : public NodeProgram {
 public:
  explicit ArenaStressProgram(NodeId id) : id_(id) {}

  void OnRound(NodeApi& api) override {
    for (const auto& d : api.Inbox()) {
      sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(d.from_local));
      sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(d.from_node));
      sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(d.msg.channel));
      for (const std::int64_t f : d.msg.fields) {
        sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(f));
      }
      if (d.msg.channel == kChApp && !d.msg.fields.empty() &&
          d.msg.fields[0] % 3 == 0) {
        api.MarkEdge(d.from_local);
      }
      if (d.msg.channel == kChToken && d.msg.fields[0] % 4 == 0) {
        api.UnmarkEdge(d.from_local);
      }
    }
    sum_ = Mix64(sum_ ^ static_cast<std::uint64_t>(api.LastAppActivity()));
    if (api.Round() >= 10) {
      done_ = true;
      return;
    }
    const int deg = api.Degree();
    for (int i = 0; i < deg; ++i) {
      const std::int64_t r = api.Round();
      // Empty payload on a scaffolding channel (no app activity).
      if ((id_ + r) % 3 == 0) api.Send(i, Message{kChQuiesce, {}});
      // Full-width payload with extreme values on an app channel.
      if ((id_ + i) % 2 == 0) {
        api.Send(i, Message{kChApp,
                            {std::numeric_limits<std::int64_t>::min(),
                             std::numeric_limits<std::int64_t>::max(), id_, r,
                             -r, id_ * 3, 0, -1}});
      }
      // Mid-width payloads on two more channels, same edge, same round.
      api.Send(i, Message{kChApp, {id_ + r, i}});
      if (r % 4 == 1) api.Send(i, Message{kChToken, {id_ - 2 * r}});
      if (r % 5 == 2) api.Send(i, Message{kChCtrl, {i, id_, r, 7}});
    }
  }
  [[nodiscard]] bool Done() const override { return done_; }

  std::uint64_t sum_ = 0;

 private:
  NodeId id_;
  bool done_ = false;
};

TEST(NetworkGoldenTest, ArenaDeliveryPinned) {
  SplitMix64 rng(31);
  const Graph g = MakeConnectedRandom(48, 0.14, 1, 21, rng);
  ASSERT_EQ(g.NumEdges(), 200);
  StaticKnowledge known;
  known.n = g.NumNodes();
  known.diameter_bound = 8;
  known.bandwidth_bits = 1 << 12;  // roomy: several wide messages per edge

  Network net(g, known, /*seed=*/5);
  net.Start([](NodeId v) { return std::make_unique<ArenaStressProgram>(v); });
  const auto stats = net.Run(100);
  ExpectStats(stats, /*rounds=*/11, /*messages=*/9317,
              /*total_bits=*/419806, /*max_bits=*/216, /*charged=*/0,
              /*phases=*/0);
  std::uint64_t combined = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    combined = Mix64(
        combined ^ dynamic_cast<ArenaStressProgram&>(net.ProgramAt(v)).sum_);
  }
  EXPECT_EQ(combined, 2579996461171503996ULL);
  const auto marked = net.MarkedEdges();
  EXPECT_EQ(marked.size(), 137u);
  std::uint64_t marked_sum = 0;
  for (const EdgeId e : marked) {
    marked_sum = Mix64(marked_sum ^ static_cast<std::uint64_t>(e));
  }
  EXPECT_EQ(marked_sum, 10107931410210139188ULL);
}

// Inbox ordering is part of the reproducibility contract the arena's
// counting-sort scatter must preserve: deliveries arrive grouped by sender
// in ascending node order, and multiple sends from one sender (same round)
// stay in send order.
TEST(NetworkGoldenTest, InboxOrderedBySenderThenSendOrder) {
  class ToCenter : public NodeProgram {
   public:
    explicit ToCenter(NodeId id) : id_(id) {}
    void OnRound(NodeApi& api) override {
      if (api.Round() == 0 && id_ != 0) {
        // Leaves: local edge 0 points at the star center.
        api.Send(0, Message{kChApp, {id_, 100}});
        api.Send(0, Message{kChApp, {id_, 200}});
      }
      if (api.Round() == 1 && id_ == 0) {
        for (const auto& d : api.Inbox()) {
          order.push_back({d.msg.fields[0], d.msg.fields[1]});
          EXPECT_EQ(d.from_node, static_cast<NodeId>(d.msg.fields[0]));
        }
      }
      done_ = true;
    }
    [[nodiscard]] bool Done() const override { return done_; }
    std::vector<std::pair<std::int64_t, std::int64_t>> order;

   private:
    NodeId id_;
    bool done_ = false;
  };

  const Graph g = MakeStar(6);  // center 0, leaves 1..5
  StaticKnowledge known;
  known.n = g.NumNodes();
  known.diameter_bound = 2;
  Network net(g, known, /*seed=*/3);
  net.Start([](NodeId v) { return std::make_unique<ToCenter>(v); });
  net.Run(10);
  const auto& center = dynamic_cast<ToCenter&>(net.ProgramAt(0));
  std::vector<std::pair<std::int64_t, std::int64_t>> want;
  for (std::int64_t v = 1; v <= 5; ++v) {
    want.push_back({v, 100});
    want.push_back({v, 200});
  }
  EXPECT_EQ(center.order, want);
}

// The default-bandwidth computation must survive n near the int limit (it
// used to shift a plain int past bit 30).
TEST(NetworkGoldenTest, DefaultBandwidthSurvivesHugeN) {
  const Graph g = MakePath(2);
  StaticKnowledge known;
  known.n = 2000000000;  // forces the shift loop up to bit 31
  known.diameter_bound = 1;
  Network net(g, known, 1);
  EXPECT_EQ(net.Known().bandwidth_bits, 8 * 31);
}

// Mirror incidence sanity at the graph layer: every slot's mirror points
// back at the same edge, and the mirror of the mirror is the slot itself.
TEST(NetworkGoldenTest, MirrorLocalsAreInvolutive) {
  SplitMix64 rng(3);
  const Graph g = MakeConnectedRandom(30, 0.15, 1, 5, rng);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const auto nb = g.Neighbors(u);
    const auto mirrors = g.MirrorLocals(u);
    ASSERT_EQ(nb.size(), mirrors.size());
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const NodeId w = nb[i].neighbor;
      const auto back = static_cast<std::size_t>(mirrors[i]);
      const auto wnb = g.Neighbors(w);
      const auto wmirrors = g.MirrorLocals(w);
      ASSERT_LT(back, wnb.size());
      EXPECT_EQ(wnb[back].edge, nb[i].edge);
      EXPECT_EQ(wnb[back].neighbor, u);
      EXPECT_EQ(static_cast<std::size_t>(wmirrors[back]), i);
    }
  }
}

}  // namespace
}  // namespace dsf
