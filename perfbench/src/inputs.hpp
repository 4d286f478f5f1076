// Seeded input generation for the three workloads. Everything here is a
// pure function of the workload seed: the same seed gives byte-identical
// request scripts and workload specs, and the program under test only ever
// receives the generated text, never a workload name.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "steiner/delta.hpp"

namespace perfbench {

// serve-mix: closed-loop client connections against one `dsf serve
// --threads kServerThreads`.
inline constexpr int kConnections = 4;
inline constexpr int kServerThreads = 2;

// Ops per script block; see MakeServeOp for the layout.
inline constexpr int kBlockOps = 20;

struct ServeOp {
  enum class Kind { kCold, kHot, kRevise };
  Kind kind = Kind::kCold;
  // Inline workload text sent as the request's "spec": one `generate` line
  // and one IC instance (sampled, or explicit terminals for revise chains).
  std::string spec;
  std::string solver;
  std::uint64_t seed = 1;    // request seed (graph and unit seeds derive from it)
  dsf::InstanceDelta delta;  // revise only: applied to the spec's instance
  long base_op = -1;         // revise only: op whose response key is the base
};

// Op `index` of connection `conn`'s script. Scripts are unbounded: a run
// consumes ops in order until its time is up.
[[nodiscard]] ServeOp MakeServeOp(std::uint64_t seed, int conn, long index);

// The wire request for `op`; `base_key` is the response key of op.base_op
// (revise only).
[[nodiscard]] std::string RequestLine(const ServeOp& op,
                                      const std::string& base_key);

// Workload text (the `.dsf` grammar) for batch-central and congest-paper,
// `rounds` rounds of the workload's size ladder in seeded order.
[[nodiscard]] std::string BatchCentralSpec(std::uint64_t seed, int rounds);
[[nodiscard]] std::string CongestPaperSpec(std::uint64_t seed, int rounds);

// Solver list of each batch workload.
[[nodiscard]] std::vector<std::string> BatchCentralSolvers();
[[nodiscard]] std::vector<std::string> CongestPaperSolvers();

}  // namespace perfbench
