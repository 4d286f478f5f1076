#include "dist/transform.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "congest/protocols.hpp"
#include "dist/runtime.hpp"
#include "graph/union_find.hpp"

namespace dsf {

namespace {

// Control opcodes (field 0 of a kChCtrl message; kCtrlFinish == -1 reserved).
constexpr std::int64_t kOpAssignLabel = 1;  // {op, node, label}
constexpr std::int64_t kOpDropLabel = 2;    // {op, label}

// --- Lemma 2.3 -------------------------------------------------------------

class CrToIcProgram : public TreeProgramBase {
 public:
  CrToIcProgram(NodeId id, std::vector<NodeId> requests)
      : TreeProgramBase(id), requests_(std::move(requests)) {}

  [[nodiscard]] Label AssignedLabel() const noexcept { return label_; }

 protected:
  void OnTreeReady(NodeApi& api) override {
    (void)api;
    pipe_.Configure(kChLabel, static_cast<int>(ChildLocals().size()));
    for (const NodeId w : requests_) pipe_.Seed({Id(), w});
    pipe_.MarkOwnDone();
  }

  void OnAppRound(NodeApi& api) override {
    for (const auto& d : api.Inbox()) {
      if (d.msg.channel == kChLabel) {
        pipe_.OnReceive(d.msg, IsRoot(), &pairs_);
      }
    }
    pipe_.Tick(api, ParentLocal(), IsRoot() ? &pairs_ : nullptr);

    if (IsRoot() && !announced_labels_ && pipe_.Complete()) {
      announced_labels_ = true;
      // Request-graph components; label := smallest member id (all members
      // of a request component are terminals).
      UnionFind uf(api.Known().n);
      std::vector<char> is_terminal(static_cast<std::size_t>(api.Known().n), 0);
      for (const auto& p : pairs_) {
        const auto v = static_cast<NodeId>(p[0]);
        const auto w = static_cast<NodeId>(p[1]);
        uf.Union(v, w);
        is_terminal[static_cast<std::size_t>(v)] = 1;
        is_terminal[static_cast<std::size_t>(w)] = 1;
      }
      std::map<int, NodeId> smallest;
      for (NodeId v = 0; v < api.Known().n; ++v) {
        if (!is_terminal[static_cast<std::size_t>(v)]) continue;
        auto [it, inserted] = smallest.try_emplace(uf.Find(v), v);
        if (!inserted) it->second = std::min(it->second, v);
      }
      for (NodeId v = 0; v < api.Known().n; ++v) {
        if (!is_terminal[static_cast<std::size_t>(v)]) continue;
        BroadcastCtrl(Message{
            kChCtrl,
            {kOpAssignLabel, v, static_cast<std::int64_t>(smallest[uf.Find(v)])}});
      }
      Finish();
    }
  }

  // A non-root node only relays pipeline payloads; once its slice drained
  // it is inert until a control or pipeline message arrives.
  [[nodiscard]] bool AppWantsTick() const override {
    return pipe_.WantsTick();
  }

  void OnCtrl(NodeApi& api, const Message& msg) override {
    (void)api;
    if (msg.fields.empty() || msg.fields[0] != kOpAssignLabel) return;
    if (static_cast<NodeId>(msg.fields[1]) == Id()) {
      label_ = static_cast<Label>(msg.fields[2]);
    }
  }

 private:
  std::vector<NodeId> requests_;
  Label label_ = kNoLabel;
  CollectPipeline pipe_;
  std::vector<FieldList> pairs_;  // root only
  bool announced_labels_ = false;
};

// --- Lemma 2.4 -------------------------------------------------------------

class MakeMinimalProgram : public TreeProgramBase {
 public:
  MakeMinimalProgram(NodeId id, Label label)
      : TreeProgramBase(id), label_(label) {}

  [[nodiscard]] Label FinalLabel() const noexcept { return label_; }

 protected:
  void OnTreeReady(NodeApi& api) override {
    (void)api;
    pipe_.Configure(kChLabel, static_cast<int>(ChildLocals().size()));
    if (label_ != kNoLabel) {
      pipe_.Seed({Id(), static_cast<std::int64_t>(label_)});
    }
    pipe_.MarkOwnDone();
  }

  void OnAppRound(NodeApi& api) override {
    for (const auto& d : api.Inbox()) {
      if (d.msg.channel == kChLabel) {
        pipe_.OnReceive(d.msg, IsRoot(), &items_);
      }
    }
    pipe_.Tick(api, ParentLocal(), IsRoot() ? &items_ : nullptr);

    if (IsRoot() && !announced_ && pipe_.Complete()) {
      announced_ = true;
      for (const Label lab : detail::SingletonLabels(items_)) {
        BroadcastCtrl(
            Message{kChCtrl, {kOpDropLabel, static_cast<std::int64_t>(lab)}});
      }
      Finish();
    }
  }

  // Same shape as CrToIcProgram: pure pipeline relay between broadcasts.
  [[nodiscard]] bool AppWantsTick() const override {
    return pipe_.WantsTick();
  }

  void OnCtrl(NodeApi& api, const Message& msg) override {
    (void)api;
    if (msg.fields.empty() || msg.fields[0] != kOpDropLabel) return;
    if (label_ != kNoLabel && static_cast<Label>(msg.fields[1]) == label_) {
      label_ = kNoLabel;
    }
  }

 private:
  Label label_;
  CollectPipeline pipe_;
  std::vector<FieldList> items_;  // root only
  bool announced_ = false;
};

}  // namespace

TransformResult RunDistributedCrToIc(const Graph& g, const CrInstance& cr,
                                     std::uint64_t seed,
                                     const NetworkOptions& net_opts) {
  DSF_CHECK(cr.NumNodes() == g.NumNodes());
  const StaticKnowledge known = detail::KnownOrThrow(g);

  Network net(g, known, seed, net_opts);
  net.Start([&](NodeId v) {
    return std::make_unique<CrToIcProgram>(
        v, cr.requests[static_cast<std::size_t>(v)]);
  });
  const long limit = 4000 + 8L * (known.diameter_bound + 4) +
                     4L * (cr.NumRequests() + cr.NumTerminals() + 4);
  TransformResult result;
  result.stats = net.Run(limit);
  DSF_CHECK_MSG(!result.stats.hit_round_limit,
                "distributed CR->IC transformation exceeded the round budget");
  result.instance.labels.assign(static_cast<std::size_t>(g.NumNodes()),
                                kNoLabel);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    result.instance.labels[static_cast<std::size_t>(v)] =
        dynamic_cast<CrToIcProgram&>(net.ProgramAt(v)).AssignedLabel();
  }
  return result;
}

TransformResult RunDistributedMakeMinimal(const Graph& g, const IcInstance& ic,
                                          std::uint64_t seed,
                                          const NetworkOptions& net_opts,
                                          std::span<const EdgeId> metered_cut) {
  DSF_CHECK(ic.NumNodes() == g.NumNodes());
  const StaticKnowledge known = detail::KnownOrThrow(g);

  Network net(g, known, seed, net_opts);
  net.RegisterCut(metered_cut);
  net.Start([&](NodeId v) {
    return std::make_unique<MakeMinimalProgram>(v, ic.LabelOf(v));
  });
  const long limit = 4000 + 8L * (known.diameter_bound + 4) +
                     4L * (ic.NumTerminals() + ic.NumComponents() + 4);
  TransformResult result;
  result.stats = net.Run(limit);
  DSF_CHECK_MSG(!result.stats.hit_round_limit,
                "distributed instance minimization exceeded the round budget");
  result.instance.labels.assign(static_cast<std::size_t>(g.NumNodes()),
                                kNoLabel);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    result.instance.labels[static_cast<std::size_t>(v)] =
        dynamic_cast<MakeMinimalProgram&>(net.ProgramAt(v)).FinalLabel();
  }
  return result;
}

}  // namespace dsf
