// Reusable CONGEST protocol building blocks.
//
// Every nontrivial algorithm in the paper is structured around a rooted BFS
// tree used for coordination: pipelined convergecasts (Lemma 2.3/2.4, the
// candidate filtering of Lemma 4.14), pipelined broadcasts, and termination /
// phase-boundary detection. `TreeProgramBase` packages these:
//
//   * rounds [0, D+2): distributed BFS-tree construction from the node with
//     the largest identifier (as in the proof of Lemma 2.3),
//   * a continuous quiescence detector: every node aggregates, over the BFS
//     tree, the latest round in which any node in its subtree sent or
//     received application traffic; the root therefore learns global
//     quiescence within D + O(1) rounds of it occurring,
//   * an ordered control broadcast: the root queues messages that are
//     pipelined down the tree (one per round per tree edge) and delivered to
//     every node in FIFO order via OnCtrl(),
//   * a pipelined collection helper (`CollectPipeline`) with subtree-done
//     markers, used to gather items at the root in O(D + #items) rounds.
//
// Derived programs implement OnTreeReady / OnAppRound / OnCtrl.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "congest/network.hpp"

namespace dsf {

// Control message opcodes (first field of a kChCtrl message).
enum CtrlOp : std::int64_t {
  kCtrlFinish = -1,  // global termination; forwarded, then node completes
};

// Vector-backed FIFO for the per-node protocol queues. A head cursor walks
// the buffer; the buffer is reset to empty (capacity kept) when the cursor
// drains it and compacted once the consumed prefix is at least half of it,
// so a queue that never fully drains still holds O(live) entries. Steady
// state allocates nothing: no per-queue block or map, no per-element node.
template <typename T>
class FlatFifo {
 public:
  void push_back(T v) { buf_.push_back(std::move(v)); }
  [[nodiscard]] T& front() noexcept { return buf_[head_]; }
  [[nodiscard]] bool empty() const noexcept { return head_ == buf_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size() - head_; }
  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      clear();
    } else if (head_ >= kCompactMin && 2 * head_ >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void clear() noexcept {
    buf_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactMin = 64;
  std::vector<T> buf_;
  std::size_t head_ = 0;
};

class TreeProgramBase : public NodeProgram {
 public:
  explicit TreeProgramBase(NodeId id) : id_(id) {}

  void OnRound(NodeApi& api) final;
  [[nodiscard]] bool Done() const final { return done_; }

  // Active-set scheduling (NodeProgram::WantsTick): a tree program can
  // be skipped on empty-inbox rounds once it is genuinely quiescent — the
  // tree is built, no control messages are queued, the detector has nothing
  // unreported, and the derived program reports AppWantsTick() false. Until
  // the tree is ready every node ticks (the D+2 flip round is time-driven),
  // and the root always ticks (coordinators run round-count-driven stage
  // machines).
  [[nodiscard]] bool WantsTick() const final {
    if (done_) return false;
    if (!tree_ready_ || is_root_) return true;
    if (!ctrl_queue_.empty()) return true;
    if (parent_local_ >= 0 &&
        subtree_last_activity_ != reported_last_activity_) {
      return true;
    }
    return AppWantsTick();
  }

  // --- tree accessors (valid once TreeReady) ---
  [[nodiscard]] bool IsRoot() const noexcept { return is_root_; }
  [[nodiscard]] bool TreeReady() const noexcept { return tree_ready_; }
  [[nodiscard]] int ParentLocal() const noexcept { return parent_local_; }
  [[nodiscard]] int TreeDepth() const noexcept { return depth_; }
  [[nodiscard]] const std::vector<int>& ChildLocals() const noexcept {
    return child_locals_;
  }
  [[nodiscard]] NodeId Id() const noexcept { return id_; }

 protected:
  // Called exactly once, the round the BFS tree is known everywhere.
  virtual void OnTreeReady(NodeApi& api) { (void)api; }
  // Called every round after the tree is ready (before control/detector
  // bookkeeping for this round is flushed).
  virtual void OnAppRound(NodeApi& api) { (void)api; }
  // Ordered delivery of control messages (root's broadcasts), incl. at root.
  virtual void OnCtrl(NodeApi& api, const Message& msg) {
    (void)api;
    (void)msg;
  }

  // Active-set contract for the derived program: return false when, with an
  // empty inbox, OnAppRound would neither send nor change outcome-relevant
  // state (no pending pipeline payloads, no queued flood updates). Default
  // true — derived programs opt in explicitly.
  [[nodiscard]] virtual bool AppWantsTick() const { return true; }

  // Root only: queue a control message for pipelined broadcast to all nodes
  // (delivered locally too, in order).
  void BroadcastCtrl(Message msg);

  // Root only: initiate global termination.
  void Finish();

  // Root only: the latest application-activity round reported from anywhere
  // in the network (lags reality by at most the tree depth).
  [[nodiscard]] long GlobalLastActivity() const noexcept {
    return subtree_last_activity_;
  }

  // Root helper: true when, as far as the root can tell, no application
  // traffic has happened after `since` and enough slack has passed for any
  // such traffic to have been reported (D + 2 rounds).
  [[nodiscard]] bool GloballyQuietSince(const NodeApi& api, long since) const {
    return subtree_last_activity_ <= since &&
           api.Round() > since + api.Known().diameter_bound + 2;
  }

  // Root helper: true once enough slack has passed for any traffic after the
  // latest known activity to have been reported. For stages whose traffic is
  // gap-free once started (floods, pipelined collections, token walks) this
  // certifies global completion — see DESIGN.md §2 for the start-time guard
  // the caller must add.
  [[nodiscard]] bool GloballyQuiet(const NodeApi& api) const {
    return api.Round() >
           subtree_last_activity_ + api.Known().diameter_bound + 3;
  }

  void SendParent(NodeApi& api, Message msg) {
    DSF_CHECK(parent_local_ >= 0);
    api.Send(parent_local_, std::move(msg));
  }

  // Number of control messages queued locally but not yet forwarded. The
  // root uses this to bound when a broadcast has reached every node:
  // enqueue_round + backlog + tree_depth + slack.
  [[nodiscard]] std::size_t CtrlBacklog() const noexcept {
    return ctrl_queue_.size();
  }

 private:
  void HandleBfs(NodeApi& api);
  void HandleDetector(NodeApi& api);
  void HandleCtrl(NodeApi& api);

  NodeId id_;
  bool is_root_ = false;
  bool tree_ready_ = false;
  bool announced_ = false;
  bool done_ = false;
  bool finish_seen_ = false;
  int parent_local_ = -1;
  int depth_ = -1;
  std::vector<int> child_locals_;

  // Quiescence detector state.
  long subtree_last_activity_ = -1;  // max over own + cached child reports
  std::vector<long> child_last_activity_;
  long reported_last_activity_ = -2;  // last value sent to parent

  // Control broadcast state: FIFO of messages to forward to children.
  FlatFifo<Message> ctrl_queue_;
};

// Pipelined convergecast of items toward the BFS root with subtree-completion
// markers. Each payload is forwarded verbatim; a DONE marker (empty payload,
// first field = sentinel) is sent once the node's own items are flushed and
// every child reported DONE. The owner decides what the payloads mean.
class CollectPipeline {
 public:
  // `channel`: the CONGEST channel used; payload first field must not equal
  // the sentinel kDoneSentinel.
  static constexpr std::int64_t kDoneSentinel = -(1LL << 62);

  void Configure(int channel, int num_children) {
    channel_ = channel;
    children_pending_ = num_children;
  }

  // Adds an item originating at this node.
  void Seed(FieldList payload) { queue_.push_back(payload); }
  // Declares that this node will seed no further items.
  void MarkOwnDone() { own_done_ = true; }

  // Feeds a received message (must be on this pipeline's channel). Payloads
  // are appended to `received` when collect_at_this_node is set (at the root)
  // and otherwise queued for forwarding. The root keeps payloads as inline
  // FieldLists, so its collection is one flat buffer.
  void OnReceive(const Message& msg, bool collect_at_this_node,
                 std::vector<FieldList>* received);

  // Sends at most one payload (or the DONE marker) to the parent this round.
  // At the root (parent_local < 0) drains local seeds into `root_collect`.
  void Tick(NodeApi& api, int parent_local,
            std::vector<FieldList>* root_collect = nullptr);

  [[nodiscard]] bool Complete() const noexcept {
    return own_done_ && children_pending_ == 0 && queue_.empty();
  }
  [[nodiscard]] bool DoneSent() const noexcept { return done_sent_; }

  // True while the next Tick could send something: a queued payload, or the
  // pending DONE marker. Feeds the owner's AppWantsTick.
  [[nodiscard]] bool WantsTick() const noexcept {
    return !queue_.empty() ||
           (own_done_ && children_pending_ == 0 && !done_sent_);
  }

 private:
  int channel_ = kChApp;
  // Payloads are inline FieldLists, so the buffer is the only allocation and
  // it is reused once it has grown to the node's peak backlog.
  FlatFifo<FieldList> queue_;
  bool own_done_ = false;
  bool done_sent_ = false;
  int children_pending_ = 0;
};

// Per-edge FIFO of keys with dedup, plus the freshest value of every key,
// shared by the flooding protocols (Bellman-Ford labels, LE-list entries) to
// rate-limit per-round sends. The owner writes a key's value in place and
// queues the key; a key re-improved while queued keeps its place and is sent
// once, with the value it holds at send time. Values outlive pops, so the
// owner keeps no per-key map of its own.
//
// Storage is three flat buffers per node, reserved at Configure for
// kInitialSlots keys and doubled past that:
//   * an open-addressing table (IdHash, load <= 1/2) from key to a dense
//     slot, assigned the first time the key is seen;
//   * the slots themselves: key and value;
//   * one link structure: a head and a tail per edge, then one next-cell per
//     (slot, edge). Each edge's queue is an intrusive singly linked list of
//     slots, and a next-cell of kNotQueued marks the slot as absent from that
//     edge's list, which is the dedup.
// No per-key, per-edge or per-queue block is ever allocated. Configure
// before any other call.
template <typename Value>
class KeyedEdgeQueues {
 public:
  // Keys reserved for at Configure. A dist-det node holds one key per
  // terminal and a dist-rand node one per LE candidate, so the paper's
  // workloads rarely grow past it.
  static constexpr std::size_t kInitialSlots = 16;

  // Clears every key, value and queue, for a node of `degree` edges.
  void Configure(int degree) {
    degree_ = static_cast<std::size_t>(degree);
    table_.assign(2 * kInitialSlots, TableEntry{});
    slots_.clear();
    slots_.reserve(kInitialSlots);
    links_.clear();
    links_.reserve((2 + kInitialSlots) * degree_);
    links_.assign(2 * degree_, kEnd);
    pending_ = 0;
  }

  // The key's slot, or -1 when the key was not seen since Configure.
  [[nodiscard]] std::int32_t Find(NodeId key) const noexcept {
    const std::size_t mask = table_.size() - 1;
    for (std::size_t i = Hash(key) & mask; table_[i].slot >= 0;
         i = (i + 1) & mask) {
      if (table_[i].key == key) return table_[i].slot;
    }
    return -1;
  }

  // The key's slot; a key seen for the first time gets the next dense slot,
  // holding a default-constructed value and queued on no edge.
  std::int32_t SlotOf(NodeId key) {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = Hash(key) & mask;
    for (; table_[i].slot >= 0; i = (i + 1) & mask) {
      if (table_[i].key == key) return table_[i].slot;
    }
    const auto slot = static_cast<std::int32_t>(slots_.size());
    slots_.push_back(Slot{key, Value{}});
    links_.resize(links_.size() + degree_, kNotQueued);
    if (2 * slots_.size() > table_.size()) {
      Rehash(2 * table_.size());
    } else {
      table_[i] = TableEntry{key, slot};
    }
    return slot;
  }

  [[nodiscard]] std::int32_t NumSlots() const noexcept {
    return static_cast<std::int32_t>(slots_.size());
  }
  [[nodiscard]] NodeId KeyAt(std::int32_t slot) const {
    return slots_[static_cast<std::size_t>(slot)].key;
  }
  [[nodiscard]] Value& ValueAt(std::int32_t slot) {
    return slots_[static_cast<std::size_t>(slot)].value;
  }

  // Queues `slot` at the back of every edge's list except `except_local`
  // (pass -1 for none); an edge that already holds the slot keeps it where
  // it is.
  void EnqueueAll(std::int32_t slot, int except_local) {
    const auto s = static_cast<std::size_t>(slot);
    std::int32_t* next = links_.data() + Row(s);
    for (std::size_t e = 0; e < degree_; ++e) {
      if (next[e] != kNotQueued || static_cast<int>(e) == except_local) {
        continue;
      }
      next[e] = kEnd;
      std::int32_t& tail = links_[2 * e + 1];
      if (tail == kEnd) {
        links_[2 * e] = slot;
      } else {
        links_[Row(static_cast<std::size_t>(tail)) + e] = slot;
      }
      tail = slot;
      ++pending_;
    }
  }

  // Pops up to `budget` keys from the front of edge `local`'s queue, in FIFO
  // order, calling send(key, value) for each with its current value. `send`
  // must not add keys: a new slot may move the values.
  template <typename Send>
  void PopEach(int local, int budget, Send&& send) {
    const auto e = static_cast<std::size_t>(local);
    std::int32_t& head = links_[2 * e];
    for (; budget > 0 && head != kEnd; --budget) {
      const auto s = static_cast<std::size_t>(head);
      std::int32_t& next = links_[Row(s) + e];
      head = next;
      next = kNotQueued;
      if (head == kEnd) links_[2 * e + 1] = kEnd;
      --pending_;
      send(slots_[s].key, std::as_const(slots_[s].value));
    }
  }

  // True while any edge queue holds a key (the owner still has sends to
  // emit). O(1): a counter maintained by EnqueueAll and PopEach.
  [[nodiscard]] bool HasPending() const noexcept { return pending_ > 0; }

 private:
  static constexpr std::int32_t kEnd = -1;        // empty list / last cell
  static constexpr std::int32_t kNotQueued = -2;  // slot not on this edge

  // Open-addressing entry: slot < 0 marks an empty cell.
  struct TableEntry {
    NodeId key = 0;
    std::int32_t slot = -1;
  };
  struct Slot {
    NodeId key;
    Value value;
  };

  [[nodiscard]] static std::size_t Hash(NodeId key) noexcept {
    return IdHash{}(static_cast<std::int64_t>(key));
  }
  // Offset of a slot's next-cells: the 2 * degree head/tail cells come first.
  [[nodiscard]] std::size_t Row(std::size_t slot) const noexcept {
    return (slot + 2) * degree_;
  }

  // Slots are dense, so the grown table is rebuilt from slots_.
  void Rehash(std::size_t size) {
    table_.assign(size, TableEntry{});
    const std::size_t mask = size - 1;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      std::size_t i = Hash(slots_[s].key) & mask;
      while (table_[i].slot >= 0) i = (i + 1) & mask;
      table_[i] = TableEntry{slots_[s].key, static_cast<std::int32_t>(s)};
    }
  }

  std::size_t degree_ = 0;
  std::vector<TableEntry> table_;     // power-of-two size
  std::vector<Slot> slots_;           // slot -> key, freshest value
  std::vector<std::int32_t> links_;   // heads/tails, then next-cells
  std::size_t pending_ = 0;           // queued (slot, edge) pairs
};

// Distributed BFS-tree sanity program used by tests: builds the tree, then
// reports depth/parent through its public state.
class BfsProbeProgram : public TreeProgramBase {
 public:
  explicit BfsProbeProgram(NodeId id) : TreeProgramBase(id) {}

  int observed_depth = -1;
  NodeId observed_parent = kNoNode;

 protected:
  void OnTreeReady(NodeApi& api) override;
};

}  // namespace dsf
