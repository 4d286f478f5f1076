// CONGEST messages.
//
// The CONGEST(log n) model allows each node to send, per round and per
// incident edge, one message of O(log n) bits (Section 2 of the paper). We
// model a message as a channel tag plus a short list of signed integer
// fields; `BitSize()` estimates the encoded width so the simulator can verify
// and report per-edge per-round bandwidth use.
//
// Fields live in inline storage (`FieldList`): an O(log n)-bit message holds
// a small constant number of machine words, so a capacity-8 array covers
// every protocol with headroom while keeping the simulator's per-message
// path free of heap traffic — millions of sends allocate nothing.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/check.hpp"
#include "common/ids.hpp"

namespace dsf {

// Fixed-capacity field storage with the std::vector surface the protocol
// code uses (indexing, size/empty, iteration, conversions to/from
// std::vector for long-term storage at coordinators).
class FieldList {
 public:
  static constexpr std::size_t kMaxFields = 8;

  FieldList() = default;
  // Copies move only the live prefix: messages usually carry 2-4 of the 8
  // slots, and the simulator's arena copies millions of FieldLists per
  // second, so not touching dead bytes roughly halves the memory traffic of
  // a delivery. Slots past size() are indeterminate by contract — every
  // accessor is bounded by size(), and equality compares prefixes.
  FieldList(const FieldList& o) noexcept : size_(o.size_) {
    for (std::uint32_t i = 0; i < size_; ++i) data_[i] = o.data_[i];
  }
  FieldList& operator=(const FieldList& o) noexcept {
    size_ = o.size_;
    for (std::uint32_t i = 0; i < size_; ++i) data_[i] = o.data_[i];
    return *this;
  }
  FieldList(std::initializer_list<std::int64_t> f) {
    DSF_CHECK(f.size() <= kMaxFields);
    size_ = static_cast<std::uint32_t>(f.size());
    std::size_t i = 0;
    for (const std::int64_t v : f) data_[i++] = v;
  }
  // Implicit on purpose: payloads stored as std::vector at coordinators
  // flow back into messages (and vice versa) without call-site churn.
  FieldList(const std::vector<std::int64_t>& v) {  // NOLINT(runtime/explicit)
    DSF_CHECK(v.size() <= kMaxFields);
    size_ = static_cast<std::uint32_t>(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) data_[i] = v[i];
  }
  operator std::vector<std::int64_t>() const {  // NOLINT(runtime/explicit)
    return {begin(), end()};
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  void clear() noexcept { size_ = 0; }
  void push_back(std::int64_t v) {
    DSF_CHECK(size_ < kMaxFields);
    data_[size_++] = v;
  }
  // Bulk overwrite from a raw run (the simulator's scatter out of its SoA
  // field pool); bounded by capacity like every other mutator.
  void assign(const std::int64_t* p, std::uint32_t n) {
    DSF_CHECK(n <= kMaxFields);
    size_ = n;
    for (std::uint32_t i = 0; i < n; ++i) data_[i] = p[i];
  }

  [[nodiscard]] std::int64_t& operator[](std::size_t i) {
    DSF_CHECK(i < size_);
    return data_[i];
  }
  [[nodiscard]] const std::int64_t& operator[](std::size_t i) const {
    DSF_CHECK(i < size_);
    return data_[i];
  }

  [[nodiscard]] const std::int64_t* begin() const noexcept {
    return data_.data();
  }
  [[nodiscard]] const std::int64_t* end() const noexcept {
    return data_.data() + size_;
  }

  friend bool operator==(const FieldList& a, const FieldList& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  // Lexicographic, like std::vector's: coordinators sort collected items.
  friend bool operator<(const FieldList& a, const FieldList& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }

 private:
  // Deliberately not value-initialized: slots past size() are indeterminate
  // by contract (every accessor is bounded), and zeroing 64 bytes per
  // construction is measurable in the simulator's per-message path.
  std::array<std::int64_t, kMaxFields> data_;
  std::uint32_t size_ = 0;
};

// Channels multiplex independent sub-protocols over the same edges. The
// simulator accounts all channels against the same physical bandwidth.
enum Channel : std::int32_t {
  kChBfs = 0,       // BFS-tree construction
  kChQuiesce = 1,   // quiescence detector (aggregation over the BFS tree)
  kChCtrl = 2,      // coordinator broadcasts (phase control, result lists)
  kChLabel = 3,     // terminal/label convergecast
  kChBellman = 4,   // region Bellman-Ford relaxations
  kChExchange = 5,  // boundary-edge final value exchange
  kChFilter = 6,    // pipelined candidate-merge filtering (Lemma 4.14)
  kChToken = 7,     // output-edge token routing
  kChApp = 8,       // first free channel for other protocols
};

struct Message {
  std::int32_t channel = kChApp;
  FieldList fields;

  Message() = default;
  Message(std::int32_t ch, std::initializer_list<std::int64_t> f)
      : channel(ch), fields(f) {}

  // Estimated encoded size: a few header bits for the channel plus a
  // zigzag/varint-style cost per field.
  [[nodiscard]] std::size_t BitSize() const noexcept {
    std::size_t bits = 4;  // channel tag
    for (const std::int64_t v : fields) {
      const auto zz = static_cast<std::uint64_t>((v << 1) ^ (v >> 63));
      bits += 1 + static_cast<std::size_t>(64 - std::countl_zero(zz | 1));
    }
    return bits;
  }
};

// A message delivered to a node, annotated with where it came from.
struct Delivery {
  int from_local = -1;    // index into the node's incidence list
  NodeId from_node = kNoNode;
  Message msg;
};

}  // namespace dsf
