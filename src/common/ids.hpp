// Fundamental scalar types shared by every module.
//
// The paper works with a weighted graph G = (V, E, W), W : E -> N with weights
// polynomially bounded in n; we use 64-bit integers for weights and derived
// sums, and `Real` (x86-64 extended precision) for moat radii / event times,
// which are dyadic rationals and hence exactly representable at the instance
// sizes this library targets (see DESIGN.md §8).
#pragma once

#include <cstdint>
#include <limits>

namespace dsf {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using Weight = std::int64_t;
using Label = std::int32_t;  // input-component identifier; kNoLabel == "⊥"
using Real = long double;

inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;
inline constexpr Label kNoLabel = -1;
inline constexpr Weight kInfWeight = std::numeric_limits<Weight>::max() / 4;

// Cap on a graph's total edge weight, enforced by the text grammars (with
// origin:line errors) and by Graph::Finalize. Any path or edge subset weighs
// at most 2^48, so every path sum d + w (<= 2^49), every WeightOf and the sum
// of two such weights stay below kInfWeight (2^61 - 1), and ToFixed of a path
// or dual sum (shift 12, <= 2^60) stays inside int64. Generated graphs reach
// at most ~2^46 (workload/generators.cpp).
inline constexpr Weight kMaxTotalWeight = Weight{1} << 48;
inline constexpr Real kInfReal = std::numeric_limits<Real>::max() / 4;

}  // namespace dsf
