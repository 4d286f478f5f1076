// Unit tests for the reusable CONGEST protocol blocks (protocols.hpp) and
// message encoding.
#include "congest/protocols.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace dsf {
namespace {

TEST(MessageTest, BitSizeGrowsWithMagnitude) {
  const Message small{kChApp, {1}};
  const Message large{kChApp, {1'000'000'000}};
  EXPECT_LT(small.BitSize(), large.BitSize());
  const Message neg{kChApp, {-5}};
  EXPECT_GT(neg.BitSize(), 4u);  // zigzag handles negatives
}

TEST(MessageTest, BitSizeCountsAllFields) {
  const Message one{kChApp, {7}};
  const Message three{kChApp, {7, 7, 7}};
  EXPECT_GT(three.BitSize(), 2 * one.BitSize() - 8);
}

TEST(MessageTest, EmptyMessageHasHeaderOnly) {
  Message m;
  m.fields.clear();
  EXPECT_EQ(m.BitSize(), 4u);
}

// Collect pipeline semantics, driven directly (no network).
TEST(CollectPipelineTest, CompleteRequiresChildrenAndOwnDone) {
  CollectPipeline p;
  p.Configure(kChApp, 2);
  EXPECT_FALSE(p.Complete());
  p.MarkOwnDone();
  EXPECT_FALSE(p.Complete());  // children pending
  Message done{kChApp, {CollectPipeline::kDoneSentinel}};
  p.OnReceive(done, false, nullptr);
  p.OnReceive(done, false, nullptr);
  EXPECT_TRUE(p.Complete());
}

TEST(CollectPipelineTest, PayloadsCollectedAtRoot) {
  CollectPipeline p;
  p.Configure(kChApp, 0);
  std::vector<FieldList> out;
  Message payload{kChApp, {42, 7}};
  p.OnReceive(payload, true, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (std::vector<std::int64_t>{42, 7}));
}

// A program exercising the collect pipeline on a real network: every node
// seeds one item (its id); the root must receive all of them.
class CollectAllProgram : public TreeProgramBase {
 public:
  explicit CollectAllProgram(NodeId id) : TreeProgramBase(id) {}
  std::vector<FieldList> collected;

 protected:
  void OnTreeReady(NodeApi& api) override {
    (void)api;
    pipe_.Configure(kChApp, static_cast<int>(ChildLocals().size()));
    pipe_.Seed({Id()});
    pipe_.MarkOwnDone();
  }
  void OnAppRound(NodeApi& api) override {
    if (!TreeReady()) return;
    for (const auto& d : api.Inbox()) {
      if (d.msg.channel == kChApp) {
        pipe_.OnReceive(d.msg, IsRoot(), &collected);
      }
    }
    pipe_.Tick(api, ParentLocal(), IsRoot() ? &collected : nullptr);
    if (IsRoot() && pipe_.Complete() && !finished_) {
      finished_ = true;
      Finish();
    }
  }

 private:
  CollectPipeline pipe_;
  bool finished_ = false;
};

TEST(CollectPipelineTest, GathersEveryNodeIdOverNetwork) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    SplitMix64 rng(seed);
    const Graph g = MakeConnectedRandom(17, 0.2, 1, 5, rng);
    const auto params = ComputeParameters(g);
    StaticKnowledge known;
    known.n = g.NumNodes();
    known.diameter_bound = params.unweighted_diameter;
    known.spd_bound = params.shortest_path_diameter;
    Network net(g, known, seed);
    net.Start([](NodeId v) { return std::make_unique<CollectAllProgram>(v); });
    const auto stats = net.Run(5000);
    ASSERT_FALSE(stats.hit_round_limit);
    auto& root = dynamic_cast<CollectAllProgram&>(net.ProgramAt(16));
    std::vector<std::int64_t> ids;
    for (const auto& item : root.collected) ids.push_back(item[0]);
    std::sort(ids.begin(), ids.end());
    std::vector<std::int64_t> expect;
    for (int i = 0; i < 17; ++i) expect.push_back(i);
    EXPECT_EQ(ids, expect) << seed;
    // Pipelining: O(n + D) rounds, not O(n * D).
    EXPECT_LE(stats.rounds,
              4 * (17 + params.unweighted_diameter) + 40);
  }
}

// Quiescence detection: the root's GlobalLastActivity converges to the true
// last round of app traffic.
class BurstProgram : public TreeProgramBase {
 public:
  explicit BurstProgram(NodeId id) : TreeProgramBase(id) {}
  long observed_global_last = -2;

 protected:
  void OnAppRound(NodeApi& api) override {
    if (!TreeReady()) return;
    // Node 0 sends a burst of app messages for 3 rounds after tree-ready.
    if (Id() == 0 && bursts_ < 3) {
      ++bursts_;
      api.Send(0, Message{kChApp, {1}});
      last_burst_round_ = api.Round();
    }
    if (IsRoot()) {
      observed_global_last = GlobalLastActivity();
      const int d = api.Known().diameter_bound;
      if (api.Round() > 6 * (d + 3) && !finished_) {
        finished_ = true;
        Finish();
      }
    }
  }

 private:
  int bursts_ = 0;
  long last_burst_round_ = -1;
  bool finished_ = false;
};

TEST(QuiescenceTest, RootLearnsLastActivity) {
  const Graph g = MakePath(9);
  StaticKnowledge known;
  known.n = 9;
  known.diameter_bound = 8;
  known.spd_bound = 8;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<BurstProgram>(v); });
  const auto stats = net.Run(5000);
  ASSERT_FALSE(stats.hit_round_limit);
  auto& root = dynamic_cast<BurstProgram&>(net.ProgramAt(8));
  // Bursts happen in rounds ~D+2..D+4 at node 0 and are received a round
  // later at node 1; the root must have learned a value in that window.
  EXPECT_GE(root.observed_global_last, 8 + 2);
  EXPECT_LE(root.observed_global_last, 8 + 7);
}

// Single-node graph: the node must root itself, become tree-ready without
// any messages, and terminate.
TEST(TreeProgramTest, SingleNodeGraph) {
  Graph g(1);
  g.Finalize();
  StaticKnowledge known;
  known.n = 1;
  known.diameter_bound = 0;
  known.spd_bound = 0;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<BfsProbeProgram>(v); });
  const auto stats = net.Run(100);
  ASSERT_FALSE(stats.hit_round_limit);
  auto& p = dynamic_cast<BfsProbeProgram&>(net.ProgramAt(0));
  EXPECT_EQ(p.observed_depth, 0);
  EXPECT_EQ(p.observed_parent, 0);
  EXPECT_TRUE(p.IsRoot());
  EXPECT_EQ(stats.messages, 0);  // nothing to talk to
}

// Root-only delivery: on a single-node network the root's control broadcasts
// must still arrive at itself, in FIFO order, one per round.
TEST(CtrlBroadcastTest, RootOnlyOrdering) {
  class SelfOrderProgram : public TreeProgramBase {
   public:
    explicit SelfOrderProgram(NodeId id) : TreeProgramBase(id) {}
    std::vector<std::int64_t> received;

   protected:
    void OnTreeReady(NodeApi& api) override {
      (void)api;
      for (std::int64_t i = 0; i < 5; ++i) {
        BroadcastCtrl(Message{kChCtrl, {200 + i}});
      }
      Finish();
    }
    void OnCtrl(NodeApi& api, const Message& msg) override {
      (void)api;
      if (msg.fields[0] != kCtrlFinish) received.push_back(msg.fields[0]);
    }
  };
  Graph g(1);
  g.Finalize();
  StaticKnowledge known;
  known.n = 1;
  known.diameter_bound = 0;
  known.spd_bound = 0;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<SelfOrderProgram>(v); });
  const auto stats = net.Run(100);
  ASSERT_FALSE(stats.hit_round_limit);
  const auto& p = dynamic_cast<SelfOrderProgram&>(net.ProgramAt(0));
  EXPECT_EQ(p.received,
            (std::vector<std::int64_t>{200, 201, 202, 203, 204}));
}

// Quiescence detection when no application traffic ever occurs: the root
// must observe GlobalLastActivity() == -1, GloballyQuietSince(-1) must hold
// shortly after the tree is ready, and the run must terminate promptly.
TEST(QuiescenceTest, NoAppTrafficEver) {
  class SilentProgram : public TreeProgramBase {
   public:
    explicit SilentProgram(NodeId id) : TreeProgramBase(id) {}
    long observed_last = -2;
    long finish_round = -1;

   protected:
    void OnAppRound(NodeApi& api) override {
      if (!IsRoot() || finished_) return;
      observed_last = GlobalLastActivity();
      if (GloballyQuietSince(api, -1)) {
        finished_ = true;
        finish_round = api.Round();
        Finish();
      }
    }

   private:
    bool finished_ = false;
  };
  const Graph g = MakePath(7);
  StaticKnowledge known;
  known.n = 7;
  known.diameter_bound = 6;
  known.spd_bound = 6;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<SilentProgram>(v); });
  const auto stats = net.Run(500);
  ASSERT_FALSE(stats.hit_round_limit);
  const auto& root = dynamic_cast<SilentProgram&>(net.ProgramAt(6));
  EXPECT_EQ(root.observed_last, -1);  // detector saw no app traffic
  // Quiet is declared right after the D + 2 slack expires, and the FINISH
  // broadcast drains within another tree-depth worth of rounds.
  EXPECT_GE(root.finish_round, known.diameter_bound + 2);
  EXPECT_LE(stats.rounds, 4L * known.diameter_bound + 12);
}

// A pipeline with no seeds anywhere must still complete (DONE markers are
// the only traffic) and deliver zero items at the root.
TEST(CollectPipelineTest, NoItemsEverSeeded) {
  class EmptyCollectProgram : public TreeProgramBase {
   public:
    explicit EmptyCollectProgram(NodeId id) : TreeProgramBase(id) {}
    std::vector<FieldList> collected;

   protected:
    void OnTreeReady(NodeApi& api) override {
      (void)api;
      pipe_.Configure(kChApp, static_cast<int>(ChildLocals().size()));
      pipe_.MarkOwnDone();
    }
    void OnAppRound(NodeApi& api) override {
      for (const auto& d : api.Inbox()) {
        if (d.msg.channel == kChApp) {
          pipe_.OnReceive(d.msg, IsRoot(), &collected);
        }
      }
      pipe_.Tick(api, ParentLocal(), IsRoot() ? &collected : nullptr);
      if (IsRoot() && pipe_.Complete() && !finished_) {
        finished_ = true;
        Finish();
      }
    }

   private:
    CollectPipeline pipe_;
    bool finished_ = false;
  };
  const Graph g = MakeStar(8);
  StaticKnowledge known;
  known.n = 8;
  known.diameter_bound = 2;
  known.spd_bound = 2;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<EmptyCollectProgram>(v); });
  const auto stats = net.Run(200);
  ASSERT_FALSE(stats.hit_round_limit);
  EXPECT_TRUE(
      dynamic_cast<EmptyCollectProgram&>(net.ProgramAt(7)).collected.empty());
}

TEST(CtrlBroadcastTest, OrderPreservedAndPipelined) {
  class OrderProgram : public TreeProgramBase {
   public:
    explicit OrderProgram(NodeId id) : TreeProgramBase(id) {}
    std::vector<std::int64_t> received;

   protected:
    void OnTreeReady(NodeApi& api) override {
      (void)api;
      if (IsRoot()) {
        for (std::int64_t i = 0; i < 20; ++i) {
          BroadcastCtrl(Message{kChCtrl, {100 + i}});
        }
        Finish();
      }
    }
    void OnCtrl(NodeApi& api, const Message& msg) override {
      (void)api;
      if (msg.fields[0] != kCtrlFinish) received.push_back(msg.fields[0]);
    }
  };
  const Graph g = MakePath(12);
  StaticKnowledge known;
  known.n = 12;
  known.diameter_bound = 11;
  known.spd_bound = 11;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<OrderProgram>(v); });
  const auto stats = net.Run(5000);
  ASSERT_FALSE(stats.hit_round_limit);
  for (NodeId v = 0; v < 12; ++v) {
    const auto& p = dynamic_cast<OrderProgram&>(net.ProgramAt(v));
    ASSERT_EQ(p.received.size(), 20u) << "node " << v;
    for (std::int64_t i = 0; i < 20; ++i) {
      EXPECT_EQ(p.received[static_cast<std::size_t>(i)], 100 + i);
    }
  }
  // Pipelined: ~#items + 2D rounds, not #items * D.
  EXPECT_LE(stats.rounds, 20 + 4 * 11 + 20);
}


// Pops up to `budget` keys from edge `e`, as the flooding owners do.
template <typename Value>
std::vector<NodeId> PopKeys(KeyedEdgeQueues<Value>& q, int e, int budget) {
  std::vector<NodeId> out;
  q.PopEach(e, budget, [&](NodeId key, const Value&) { out.push_back(key); });
  return out;
}

template <typename Value>
void Enqueue(KeyedEdgeQueues<Value>& q, NodeId key, int except_local) {
  q.EnqueueAll(q.SlotOf(key), except_local);
}

// The KeyedEdgeQueues contract the flooding protocols rely on: per-edge FIFO,
// no duplicate while pending, re-queue after a pop goes to the back,
// except_local skipping, budgeted pops, exact HasPending and a full reset.
TEST(KeyedEdgeQueuesTest, PerEdgeFifoWithDedupAndBudget) {
  using Keys = std::vector<NodeId>;
  KeyedEdgeQueues<int> q;
  q.Configure(0);
  Enqueue(q, 4, -1);  // a node without edges has nothing to queue on
  EXPECT_FALSE(q.HasPending());
  EXPECT_EQ(q.Find(4), 0);  // but the key has its slot
  q.Configure(3);
  EXPECT_FALSE(q.HasPending());
  EXPECT_EQ(q.Find(4), -1);  // Configure drops every key
  EXPECT_TRUE(PopKeys(q, 1, 4).empty());

  Enqueue(q, 7, -1);  // -1 skips no edge
  Enqueue(q, 3, 1);   // edges 0 and 2
  Enqueue(q, 7, -1);  // still pending everywhere: no duplicate
  Enqueue(q, 9, 0);   // edges 1 and 2
  Enqueue(q, 3, 2);   // pending on 0, new on 1: appended behind 9
  EXPECT_TRUE(q.HasPending());

  EXPECT_EQ(PopKeys(q, 0, 1), (Keys{7}));  // budget caps the pop
  EXPECT_TRUE(PopKeys(q, 0, 0).empty());
  EXPECT_EQ(PopKeys(q, 0, 5), (Keys{3}));
  EXPECT_EQ(PopKeys(q, 1, 2), (Keys{7, 9}));
  EXPECT_TRUE(q.HasPending());

  // 7 was popped from edges 0 and 1 but is still pending on edge 2: it is
  // re-queued at the back of 0 and 1 only. Edge 1 still holds 3.
  Enqueue(q, 7, -1);
  EXPECT_EQ(PopKeys(q, 1, 5), (Keys{3, 7}));
  EXPECT_EQ(PopKeys(q, 2, 5), (Keys{7, 3, 9}));
  EXPECT_TRUE(q.HasPending());  // edge 0 still holds 7
  EXPECT_EQ(PopKeys(q, 0, 5), (Keys{7}));
  EXPECT_FALSE(q.HasPending());

  // Drained edges refill in FIFO order.
  Enqueue(q, 9, -1);
  Enqueue(q, 7, -1);
  EXPECT_EQ(PopKeys(q, 2, 5), (Keys{9, 7}));

  // Configure drops every queued key and link.
  q.Configure(2);
  EXPECT_FALSE(q.HasPending());
  EXPECT_TRUE(PopKeys(q, 0, 5).empty());
  Enqueue(q, 9, 1);
  EXPECT_EQ(PopKeys(q, 0, 5), (Keys{9}));
  EXPECT_FALSE(q.HasPending());
}

// Degree 130: wide link rows, pops on neighbouring locals (63/64,
// 127/128), and keys past the reserved slots, so the link rows and the slot
// table grow while keys sit queued.
TEST(KeyedEdgeQueuesTest, WordBoundaryLocals) {
  using Keys = std::vector<NodeId>;
  constexpr int kDegree = 130;
  KeyedEdgeQueues<int> q;
  q.Configure(kDegree);
  const std::vector<int> edges = {0, 63, 64, 127, 128, 129};
  for (const int except : edges) Enqueue(q, 1000 + except, except);
  Enqueue(q, 5, -1);
  Enqueue(q, 1000 + 64, 63);  // pending on every edge but 64 and 63
  for (const int e : edges) {
    Keys expect;
    for (const int except : edges) {
      if (except != e) expect.push_back(1000 + except);
    }
    expect.push_back(5);
    if (e == 64) expect.push_back(1000 + 64);  // 63 is skipped
    EXPECT_EQ(PopKeys(q, e, kDegree), expect) << "edge " << e;
  }
  // Untouched edges hold every key once, in first-enqueue order.
  EXPECT_EQ(PopKeys(q, 1, kDegree).size(), edges.size() + 1);
  // Pops on one edge leave the neighbouring edges' links alone.
  Enqueue(q, 5, -1);
  for (const int e : edges) {
    EXPECT_EQ(PopKeys(q, e, 1), (Keys{5})) << "edge " << e;
  }
  for (int e = 0; e < kDegree; ++e) {
    const Keys out = PopKeys(q, e, kDegree);
    if (e == 1) {
      EXPECT_EQ(out, (Keys{5}));
    } else if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
      EXPECT_EQ(out.size(), edges.size() + 1) << "edge " << e;
    }
  }
  EXPECT_FALSE(q.HasPending());
  // Grow well past the reserved slots while keys sit queued: the queued
  // order survives the growth of the link rows and the table rehash.
  const int extra = 5 * static_cast<int>(KeyedEdgeQueues<int>::kInitialSlots);
  for (int k = 0; k < extra; ++k) Enqueue(q, 2000 + 7 * k, k % kDegree);
  for (const int e : {0, 64, 129}) {
    Keys expect;
    for (int k = 0; k < extra; ++k) {
      if (k % kDegree != e) expect.push_back(2000 + 7 * k);
    }
    EXPECT_EQ(PopKeys(q, e, extra), expect) << "edge " << e;
  }
  for (int k = 0; k < extra; ++k) {
    EXPECT_EQ(q.KeyAt(q.Find(2000 + 7 * k)), 2000 + 7 * k);
  }
}

// Randomized differential check against a direct per-edge deque + set +
// value-map model of the contract, across several degrees and
// reconfigurations: every popped key carries its freshest value, a key
// re-improved while queued is sent once per edge, and values survive pops.
TEST(KeyedEdgeQueuesTest, MatchesReferenceModel) {
  KeyedEdgeQueues<std::int64_t> q;
  // The case the model checks at random, spelled out: re-improved twice
  // while queued, key 8 goes out once, with the last value, which it keeps.
  q.Configure(1);
  for (const std::int64_t v : {30, 20, 10}) {
    const std::int32_t slot = q.SlotOf(8);
    q.ValueAt(slot) = v;
    q.EnqueueAll(slot, -1);
  }
  std::vector<std::pair<NodeId, std::int64_t>> sent;
  q.PopEach(0, 5, [&](NodeId key, const std::int64_t& v) {
    sent.emplace_back(key, v);
  });
  EXPECT_EQ(sent, (std::vector<std::pair<NodeId, std::int64_t>>{{8, 10}}));
  EXPECT_EQ(q.ValueAt(q.Find(8)), 10);

  SplitMix64 rng(17);
  for (const int degree : {1, 2, 5, 64, 65, 130}) {
    q.Configure(degree);
    std::vector<std::deque<NodeId>> model(static_cast<std::size_t>(degree));
    std::vector<std::set<NodeId>> member(static_cast<std::size_t>(degree));
    std::map<NodeId, std::int64_t> value;
    std::size_t pending = 0;
    for (int step = 0; step < 4000; ++step) {
      if (rng.NextBelow(3) != 0) {
        // Write a fresh value, then queue: a key already queued on an edge
        // keeps its place there and goes out with this value.
        const auto key = static_cast<NodeId>(rng.NextBelow(300));
        const int except =
            static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(degree) + 1)) - 1;
        const auto v = static_cast<std::int64_t>(rng.Next() >> 1);
        const std::int32_t slot = q.SlotOf(key);
        q.ValueAt(slot) = v;
        value[key] = v;
        q.EnqueueAll(slot, except);
        for (int e = 0; e < degree; ++e) {
          const auto ue = static_cast<std::size_t>(e);
          if (e != except && member[ue].insert(key).second) {
            model[ue].push_back(key);
            ++pending;
          }
        }
      } else {
        const int e = static_cast<int>(rng.NextBelow(static_cast<std::uint64_t>(degree)));
        const int budget = static_cast<int>(rng.NextBelow(4));
        std::vector<std::pair<NodeId, std::int64_t>> out;
        q.PopEach(e, budget, [&](NodeId key, const std::int64_t& v) {
          out.emplace_back(key, v);
        });
        std::vector<std::pair<NodeId, std::int64_t>> expect;
        auto& mq = model[static_cast<std::size_t>(e)];
        for (int b = 0; b < budget && !mq.empty(); ++b) {
          expect.emplace_back(mq.front(), value.at(mq.front()));
          member[static_cast<std::size_t>(e)].erase(mq.front());
          mq.pop_front();
          --pending;
        }
        ASSERT_EQ(out, expect) << "degree " << degree << " step " << step;
        // A popped key keeps its slot and value.
        for (const auto& [key, v] : out) {
          const std::int32_t slot = q.Find(key);
          ASSERT_GE(slot, 0);
          ASSERT_EQ(q.KeyAt(slot), key);
          ASSERT_EQ(q.ValueAt(slot), v);
        }
      }
      ASSERT_EQ(q.HasPending(), pending > 0) << "degree " << degree;
    }
    ASSERT_EQ(q.NumSlots(), static_cast<std::int32_t>(value.size()));
    for (const auto& [key, v] : value) {
      ASSERT_EQ(q.ValueAt(q.Find(key)), v) << "key " << key;
    }
    ASSERT_EQ(q.Find(300), -1);  // never seen
  }
}

// CollectPipeline FIFO across drain-then-refill: every node seeds in bursts
// while relaying its subtree, so its queue repeatedly empties and refills.
// Each node logs what it queued (own seeds and relays, in queue order); its
// parent logs what arrived from it. The two logs must match exactly.
TEST(CollectPipelineTest, FifoAcrossDrainAndRefill) {
  using Item = std::vector<std::int64_t>;
  class BurstCollectProgram : public TreeProgramBase {
   public:
    explicit BurstCollectProgram(NodeId id) : TreeProgramBase(id) {}
    std::vector<Item> queued;                    // push order at this node
    std::map<NodeId, std::vector<Item>> arrived;  // per child, arrival order
    std::vector<FieldList> collected;            // root only

   protected:
    void OnTreeReady(NodeApi& api) override {
      pipe_.Configure(kChApp, static_cast<int>(ChildLocals().size()));
      ready_round_ = api.Round();
    }
    void OnAppRound(NodeApi& api) override {
      for (const auto& d : api.Inbox()) {
        if (d.msg.channel != kChApp) continue;
        if (d.msg.fields[0] != CollectPipeline::kDoneSentinel) {
          arrived[d.from_node].push_back(d.msg.fields);
          if (!IsRoot()) queued.push_back(d.msg.fields);
        }
        pipe_.OnReceive(d.msg, IsRoot(), &collected);
      }
      const long k = api.Round() - ready_round_;
      int burst = 0;
      if (k == 0) burst = 3;
      if (k == 3 || k == 9 || k == 10) burst = 1;
      if (k == 4) burst = 2;
      for (int b = 0; b < burst; ++b) {
        const Item item = {Id(), seq_++};
        if (!IsRoot()) queued.push_back(item);
        pipe_.Seed(item);
      }
      if (k == 12) pipe_.MarkOwnDone();
      pipe_.Tick(api, ParentLocal(), IsRoot() ? &collected : nullptr);
      if (IsRoot() && pipe_.Complete() && !finished_) {
        finished_ = true;
        Finish();
      }
    }

   private:
    CollectPipeline pipe_;
    long ready_round_ = -1;
    std::int64_t seq_ = 0;
    bool finished_ = false;
  };
  for (const bool star : {false, true}) {
    const Graph g = star ? MakeStar(6) : MakePath(6);
    const auto params = ComputeParameters(g);
    StaticKnowledge known;
    known.n = g.NumNodes();
    known.diameter_bound = params.unweighted_diameter;
    known.spd_bound = params.shortest_path_diameter;
    Network net(g, known, 3);
    net.Start([](NodeId v) { return std::make_unique<BurstCollectProgram>(v); });
    ASSERT_FALSE(net.Run(2000).hit_round_limit);
    std::map<NodeId, std::vector<Item>> sent;  // child -> what its parent saw
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      const auto& p = dynamic_cast<BurstCollectProgram&>(net.ProgramAt(v));
      for (const auto& [child, items] : p.arrived) sent[child] = items;
    }
    std::size_t total = 0;
    for (NodeId v = 0; v + 1 < g.NumNodes(); ++v) {
      const auto& p = dynamic_cast<BurstCollectProgram&>(net.ProgramAt(v));
      EXPECT_EQ(sent[v], p.queued) << "node " << v << " star " << star;
    }
    const auto& root = dynamic_cast<BurstCollectProgram&>(
        net.ProgramAt(g.NumNodes() - 1));
    std::map<std::int64_t, std::int64_t> next_seq;
    for (const auto& item : root.collected) {
      EXPECT_EQ(item[1], next_seq[item[0]]++) << "origin " << item[0];
      ++total;
    }
    EXPECT_EQ(total, static_cast<std::size_t>(8 * g.NumNodes()));
  }
}

// Control broadcasts across drain-then-refill: the root queues bursts both
// while its queue is non-empty and right after it drained, and every node
// checks that CtrlBacklog() is exactly the number of messages it holds
// (received or issued, minus delivered) — randomized.cpp sizes its
// connect round from that count.
TEST(CtrlBroadcastTest, DrainThenRefillKeepsOrderAndBacklog) {
  class RefillProgram : public TreeProgramBase {
   public:
    explicit RefillProgram(NodeId id) : TreeProgramBase(id) {}
    std::vector<std::int64_t> delivered;
    std::size_t in_ = 0;      // messages this node queued
    std::size_t out_ = 0;     // OnCtrl calls, FINISH included
    bool backlog_ok = true;
    int refills_after_drain = 0;

   protected:
    void OnCtrl(NodeApi& api, const Message& msg) override {
      (void)api;
      ++out_;
      if (msg.fields[0] != kCtrlFinish) delivered.push_back(msg.fields[0]);
    }
    void OnAppRound(NodeApi& api) override {
      if (!IsRoot()) {
        // HandleCtrl queued this round's arrivals; one was then delivered.
        for (const auto& d : api.Inbox()) {
          if (d.msg.channel == kChCtrl) ++in_;
        }
        if (CtrlBacklog() != in_ - out_) backlog_ok = false;
        return;
      }
      if (CtrlBacklog() != in_ - out_) backlog_ok = false;
      if (finished_) return;
      int burst = 0;
      if (round_ == 0) burst = 3;
      if (round_ > 0 && CtrlBacklog() == 0) {
        burst = refills_after_drain < 2 ? 2 : 1;
        ++refills_after_drain;
      }
      if (round_ == 1) burst = 2;  // pushed while the queue is non-empty
      for (int b = 0; b < burst; ++b) Push();
      if (refills_after_drain == 3) {
        finished_ = true;
        Finish();
        ++in_;
      }
      if (CtrlBacklog() != in_ - out_) backlog_ok = false;
      ++round_;
    }

   private:
    void Push() {
      BroadcastCtrl(Message{kChCtrl, {next_++}});
      ++in_;
    }
    int round_ = 0;
    std::int64_t next_ = 500;
    bool finished_ = false;
  };
  const Graph g = MakePath(7);
  StaticKnowledge known;
  known.n = 7;
  known.diameter_bound = 6;
  known.spd_bound = 6;
  Network net(g, known, 1);
  net.Start([](NodeId v) { return std::make_unique<RefillProgram>(v); });
  ASSERT_FALSE(net.Run(2000).hit_round_limit);
  std::vector<std::int64_t> expect;
  for (std::int64_t i = 500; i < 500 + 3 + 2 + 2 + 2 + 1; ++i) {
    expect.push_back(i);
  }
  for (NodeId v = 0; v < 7; ++v) {
    const auto& p = dynamic_cast<RefillProgram&>(net.ProgramAt(v));
    EXPECT_EQ(p.delivered, expect) << "node " << v;
    EXPECT_TRUE(p.backlog_ok) << "node " << v;
    EXPECT_EQ(p.in_, p.out_) << "node " << v;  // drained at termination
  }
  EXPECT_EQ(dynamic_cast<RefillProgram&>(net.ProgramAt(6)).refills_after_drain,
            3);
}

}  // namespace
}  // namespace dsf
