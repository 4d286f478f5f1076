#include "congest/protocols.hpp"

#include <algorithm>

namespace dsf {

namespace {

// BFS channel opcodes.
constexpr std::int64_t kBfsAnnounce = 1;
constexpr std::int64_t kBfsChildClaim = 2;

}  // namespace

void TreeProgramBase::OnRound(NodeApi& api) {
  if (done_) return;
  const long r = api.Round();
  const int n = api.Known().n;

  if (r == 0) {
    child_last_activity_.assign(static_cast<std::size_t>(api.Degree()), -1);
    if (id_ == n - 1) {
      // The node with the largest identifier roots the BFS tree (Lemma 2.3).
      is_root_ = true;
      depth_ = 0;
      announced_ = true;
      for (int i = 0; i < api.Degree(); ++i) {
        api.Send(i, Message{kChBfs, {kBfsAnnounce, 0}});
      }
    }
    if (n == 1) {
      is_root_ = true;
      depth_ = 0;
    }
  }

  HandleBfs(api);
  HandleDetector(api);
  HandleCtrl(api);

  if (!tree_ready_ && r >= api.Known().diameter_bound + 2) {
    DSF_CHECK_MSG(depth_ >= 0, "node " << id_ << " not reached by BFS tree; "
                                       << "graph disconnected or D bound wrong");
    tree_ready_ = true;
    OnTreeReady(api);
  }

  if (tree_ready_) {
    // Deliver at most one queued control message per round (pipelining).
    if (!ctrl_queue_.empty()) {
      Message msg = std::move(ctrl_queue_.front());
      ctrl_queue_.pop_front();
      for (const int c : child_locals_) api.Send(c, msg);
      if (!msg.fields.empty() && msg.fields[0] == kCtrlFinish) {
        finish_seen_ = true;
      }
      OnCtrl(api, msg);
    }
    OnAppRound(api);
    // Detector tick: report the subtree's latest activity when it changed.
    const long own = api.LastAppActivity();
    long subtree = std::max(subtree_last_activity_, own);
    for (const long c : child_last_activity_) subtree = std::max(subtree, c);
    subtree_last_activity_ = subtree;
    if (!is_root_ && subtree_last_activity_ != reported_last_activity_ &&
        parent_local_ >= 0) {
      reported_last_activity_ = subtree_last_activity_;
      api.Send(parent_local_, Message{kChQuiesce, {subtree_last_activity_}});
    }
  }

  if (finish_seen_ && ctrl_queue_.empty()) done_ = true;
}

void TreeProgramBase::HandleBfs(NodeApi& api) {
  // Adopt a parent on the first round any announcement arrives; among
  // same-round announcements choose the smallest sender id (deterministic).
  int best_local = -1;
  NodeId best_id = kNoNode;
  std::int64_t best_depth = 0;
  for (const auto& d : api.Inbox()) {
    if (d.msg.channel != kChBfs) continue;
    if (d.msg.fields[0] == kBfsAnnounce) {
      if (depth_ < 0 && (best_local < 0 || d.from_node < best_id)) {
        best_local = d.from_local;
        best_id = d.from_node;
        best_depth = d.msg.fields[1];
      }
    } else if (d.msg.fields[0] == kBfsChildClaim) {
      child_locals_.push_back(d.from_local);
    }
  }
  if (best_local >= 0 && depth_ < 0) {
    parent_local_ = best_local;
    depth_ = static_cast<int>(best_depth) + 1;
    api.Send(parent_local_, Message{kChBfs, {kBfsChildClaim}});
    if (!announced_) {
      announced_ = true;
      for (int i = 0; i < api.Degree(); ++i) {
        if (i == parent_local_) continue;
        api.Send(i, Message{kChBfs, {kBfsAnnounce, best_depth + 1}});
      }
    }
  }
}

void TreeProgramBase::HandleDetector(NodeApi& api) {
  for (const auto& d : api.Inbox()) {
    if (d.msg.channel != kChQuiesce) continue;
    auto& cached = child_last_activity_[static_cast<std::size_t>(d.from_local)];
    cached = std::max(cached, d.msg.fields[0]);
  }
}

void TreeProgramBase::HandleCtrl(NodeApi& api) {
  for (const auto& d : api.Inbox()) {
    if (d.msg.channel != kChCtrl) continue;
    ctrl_queue_.push_back(d.msg);
  }
}

void TreeProgramBase::BroadcastCtrl(Message msg) {
  DSF_CHECK_MSG(is_root_, "only the root issues control broadcasts");
  msg.channel = kChCtrl;
  ctrl_queue_.push_back(std::move(msg));
}

void TreeProgramBase::Finish() {
  BroadcastCtrl(Message{kChCtrl, {kCtrlFinish}});
}

void CollectPipeline::OnReceive(const Message& msg, bool collect_at_this_node,
                                std::vector<FieldList>* received) {
  DSF_CHECK(msg.channel == channel_);
  if (!msg.fields.empty() && msg.fields[0] == kDoneSentinel) {
    DSF_CHECK(children_pending_ > 0);
    --children_pending_;
    return;
  }
  if (collect_at_this_node) {
    DSF_CHECK(received != nullptr);
    received->push_back(msg.fields);
  } else {
    queue_.push_back(msg.fields);
  }
}

void CollectPipeline::Tick(NodeApi& api, int parent_local,
                           std::vector<FieldList>* root_collect) {
  if (parent_local < 0) {
    // Root: drain local seeds straight into the collection.
    while (!queue_.empty()) {
      if (root_collect != nullptr) root_collect->push_back(queue_.front());
      queue_.pop_front();
    }
    return;
  }
  if (!queue_.empty()) {
    Message m;
    m.channel = channel_;
    m.fields = queue_.front();
    queue_.pop_front();
    api.Send(parent_local, std::move(m));
  } else if (own_done_ && children_pending_ == 0 && !done_sent_) {
    done_sent_ = true;
    api.Send(parent_local, Message{channel_, {kDoneSentinel}});
  }
}

void BfsProbeProgram::OnTreeReady(NodeApi& api) {
  observed_depth = TreeDepth();
  observed_parent = IsRoot() ? Id() : api.NeighborId(ParentLocal());
  if (IsRoot()) Finish();
}

}  // namespace dsf
