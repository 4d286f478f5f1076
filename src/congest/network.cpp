#include "congest/network.hpp"

#include <algorithm>
#include <bit>

namespace dsf {

namespace {

inline void SetBit(std::vector<std::uint64_t>& bits, NodeId v) {
  bits[static_cast<std::size_t>(v) >> 6] |= std::uint64_t{1} << (v & 63);
}

}  // namespace

NodeApi::NodeApi(Network& net, NodeId id)
    : net_(net),
      id_(id),
      slot_base_(static_cast<std::uint32_t>(net.graph_.IncidenceBase(id))),
      nb_(net.graph_.Neighbors(id)) {}

Weight NodeApi::EdgeWeight(int local) const {
  DSF_CHECK(local >= 0 && local < Degree());
  return net_.graph_.GetEdge(nb_[static_cast<std::size_t>(local)].edge).w;
}

const StaticKnowledge& NodeApi::Known() const noexcept { return net_.known_; }

long NodeApi::Round() const noexcept { return net_.round_; }

SplitMix64& NodeApi::Rng() noexcept {
  return net_.rngs_[static_cast<std::size_t>(id_)];
}

void NodeApi::MarkEdge(int local) {
  net_.marked_[static_cast<std::size_t>(GlobalEdgeId(local))] = true;
}

void NodeApi::UnmarkEdge(int local) {
  net_.marked_[static_cast<std::size_t>(GlobalEdgeId(local))] = false;
}

long NodeApi::LastAppActivity() const noexcept {
  return net_.last_app_[static_cast<std::size_t>(id_)];
}

void NodeApi::NotePhases(long phases) { net_.stats_.phases += phases; }

Network::Network(const Graph& g, StaticKnowledge known, std::uint64_t seed,
                 NetworkOptions options)
    : graph_(g), known_(known), seed_(seed), options_(options) {
  DSF_CHECK(g.Finalized());
  if (known_.n == 0) known_.n = g.NumNodes();
  if (known_.bandwidth_bits == 0) {
    // Default bandwidth: c * ceil(log2 n) with a small constant, min 64 bits,
    // matching CONGEST(log n) up to the constant hidden in O(log n). The
    // shift runs in 64-bit so huge n cannot overflow a plain int.
    std::int64_t log_n = 1;
    while ((std::int64_t{1} << log_n) < static_cast<std::int64_t>(known_.n)) {
      ++log_n;
    }
    known_.bandwidth_bits = std::max<std::int64_t>(64, 8 * log_n);
  }
  const auto n = static_cast<std::size_t>(g.NumNodes());
  rngs_.reserve(n);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    rngs_.emplace_back(DeriveSeed(seed_, static_cast<std::uint64_t>(v)));
  }
  in_cut_.assign(static_cast<std::size_t>(g.NumEdges()), false);
  marked_.assign(static_cast<std::size_t>(g.NumEdges()), false);
  edge_bits_.assign(static_cast<std::size_t>(g.NumEdges()) * 2, 0);
  senders_.reserve(n);
  in_off_.assign(n, 0);
  in_len_.assign(n, 0);
  in_cur_.assign(n, 0);
  last_app_.assign(n, -1);
  receivers_.reserve(n);
  in_cnt_.assign(n, 0);
  next_receivers_.reserve(n);
  const std::size_t words = (n + 63) / 64;
  recv_bits_.assign(words, 0);
  wants_bits_.assign(words, 0);
}

Network::~Network() = default;

void Network::Start(const ProgramFactory& factory) {
  programs_.clear();
  programs_.reserve(static_cast<std::size_t>(graph_.NumNodes()));
  for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
    programs_.push_back(factory(v));
    DSF_CHECK(programs_.back() != nullptr);
  }
  // Seed the cached WantsTick bits. Program state only changes inside
  // OnRound, so each bit stays valid until its node is next ticked.
  std::fill(wants_bits_.begin(), wants_bits_.end(), 0);
  for (NodeId v = 0; v < graph_.NumNodes(); ++v) {
    if (programs_[static_cast<std::size_t>(v)]->WantsTick()) {
      SetBit(wants_bits_, v);
    }
  }
}

void Network::RegisterCut(std::span<const EdgeId> cut_edges) {
  for (const EdgeId e : cut_edges) {
    DSF_CHECK(e >= 0 && e < graph_.NumEdges());
    in_cut_[static_cast<std::size_t>(e)] = true;
    has_cut_ = true;
  }
}

void Network::TickWord(int word) {
  // A node ticks iff its inbox is non-empty or it wants the tick. Only this
  // call rewrites this word's wants bits, so the word is composed here.
  std::uint64_t wants = wants_bits_[static_cast<std::size_t>(word)];
  std::uint64_t bits = recv_bits_[static_cast<std::size_t>(word)] | wants;
  if (bits == 0) return;
  const NodeId base = static_cast<NodeId>(word) * 64;
  while (bits != 0) {
    const int b = std::countr_zero(bits);
    bits &= bits - 1;
    const NodeId v = base + b;
    NodeApi api(*this, v);
    programs_[static_cast<std::size_t>(v)]->OnRound(api);
    // Refresh the cached bit: state can only have changed in this tick.
    const std::uint64_t mask = std::uint64_t{1} << b;
    if (programs_[static_cast<std::size_t>(v)]->WantsTick()) {
      wants |= mask;
    } else {
      wants &= ~mask;
    }
  }
  wants_bits_[static_cast<std::size_t>(word)] = wants;
}

void Network::DeliverRound() {
  // Retire last round's inboxes: their spans were consumed by phase (i).
  // The receiver bitset is bulk-cleared word-wise; lengths are reset
  // through the receiver dirty list.
  for (const NodeId r : receivers_) {
    in_len_[static_cast<std::size_t>(r)] = 0;
  }
  receivers_.clear();
  std::fill(recv_bits_.begin(), recv_bits_.end(), 0);

  // Send() already ran the counting pass into the next-round buffers
  // (in_cnt_ / next_receivers_ / senders_), so delivery is O(active):
  // prefix-sum the dirty receivers into contiguous spans of the delivery
  // arena (discovery order; the spans are what Inbox() hands out, their
  // relative placement is irrelevant). The arena only grows, so the steady
  // state allocates nothing.
  std::uint32_t acc = 0;
  for (const NodeId r : next_receivers_) {
    const auto ri = static_cast<std::size_t>(r);
    const std::uint32_t raw = in_cnt_[ri];
    const std::uint32_t cnt = raw & kCountMask;
    // Receiving application traffic counts as activity in the round the
    // message is processed (the next one).
    if (raw & kAppBit) last_app_[ri] = round_ + 1;
    in_off_[ri] = acc;
    in_cur_[ri] = acc;
    in_len_[ri] = cnt;
    acc += cnt;
    in_cnt_[ri] = 0;
    SetBit(recv_bits_, r);
  }
  receivers_.swap(next_receivers_);
  const std::size_t total = acc;
  if (arena_.size() < total) arena_.resize(total);

  // Accounting + scatter pass (serial, node order): per-slot bandwidth, cut
  // metering, and each send's delivery-arena slot via the counting-sort
  // cursors. Walking senders in node order makes every slot-indexed access
  // (edge_bits_, mirrors) an ascending sweep and drains the packed field
  // pool front-to-back with a plain cursor.
  const auto slot_dirs = graph_.SlotDirs();
  const auto mirrors = graph_.SlotMirrors();
  const detail::SendHeader* hdr = send_.hdr.data();
  const std::int64_t* fields = send_.fields.data();
  const auto sent = static_cast<std::uint32_t>(send_.hdr.size());
  std::uint32_t i = 0;
  long total_bits = 0;
  long max_bits = stats_.max_bits_per_edge_round;
  for (const auto& s : senders_) {
    const std::uint32_t end = i + s.count;
    for (; i < end; ++i) {
      const detail::SendHeader& h = hdr[i];
      // The delivery slot of header i+K is (approximately) its receiver's
      // current cursor; fetching that line ahead of time hides the L2 miss
      // the random counting-sort write would otherwise stall on.
      if (i + kScatterPrefetch < sent) {
        __builtin_prefetch(
            arena_.data() + in_cur_[static_cast<std::size_t>(
                                hdr[i + kScatterPrefetch].to)],
            1, 1);
      }
      // Bandwidth accumulates per sender-side incidence slot — a bijection
      // with (edge, direction), so the reported stats are unchanged.
      edge_bits_[h.slot] += h.bits;
      total_bits += h.bits;
      if (has_cut_ && in_cut_[slot_dirs[h.slot] >> 1]) {
        stats_.cut_bits += h.bits;
        ++stats_.cut_messages;
      }
      Delivery& d = arena_[in_cur_[static_cast<std::size_t>(h.to)]++];
      d.from_local = mirrors[h.slot];
      d.from_node = h.from;
      d.msg.channel = h.channel;
      d.msg.fields.assign(fields, h.fsize);
      fields += h.fsize;
    }
    // Every slot this sender touched lies in its own incidence range, so
    // the per-edge-round maximum folds and the counters reset with one
    // contiguous sweep that stays in L1 — no global dirty list.
    const auto base = static_cast<std::size_t>(graph_.IncidenceBase(s.v));
    const std::size_t deg = graph_.Neighbors(s.v).size();
    for (std::size_t slot = base; slot < base + deg; ++slot) {
      if (edge_bits_[slot] != 0) {
        max_bits = std::max(max_bits, edge_bits_[slot]);
        edge_bits_[slot] = 0;
      }
    }
  }
  stats_.total_bits += total_bits;
  stats_.max_bits_per_edge_round = max_bits;
  stats_.messages += static_cast<long>(total);

  senders_.clear();
  send_.hdr.clear();
  send_.fields.clear();
  in_flight_ = static_cast<long>(total);
}

bool Network::Step() {
  DSF_CHECK_MSG(!programs_.empty(), "Start() must be called before Step()");

  // (i) + (ii): local computation and sends, driven by the active-set
  // bitsets and run in ascending node order — the order Send()'s counting
  // pass and the node-ordered delivery rely on.
  const auto words = static_cast<int>(wants_bits_.size());
  for (int w = 0; w < words; ++w) TickWord(w);

  // (iii): flatten this round's traffic into the delivery arena.
  DeliverRound();
  ++round_;
  stats_.rounds = round_;

  // Finished?
  if (in_flight_ > 0) return true;
  for (const auto& p : programs_) {
    if (!p->Done()) return true;
  }
  return false;
}

RunStats Network::Run(long max_rounds) {
  while (round_ < max_rounds) {
    // The round boundary is the simulator's cancellation checkpoint: a
    // cancelled run keeps every bit delivered so far (stats stay truthful)
    // but stops paying for rounds a portfolio loser no longer needs.
    if (options_.cancel != nullptr && options_.cancel->Expired()) {
      stats_.cancelled = true;
      return stats_;
    }
    if (!Step()) return stats_;
  }
  stats_.hit_round_limit = true;
  return stats_;
}

std::vector<EdgeId> Network::MarkedEdges() const {
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < graph_.NumEdges(); ++e) {
    if (marked_[static_cast<std::size_t>(e)]) out.push_back(e);
  }
  return out;
}

}  // namespace dsf
