// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// SamplerKind lives in its own tiny header (like sampling/sample_reuse.h)
// so every options struct that exposes the knob — MonteCarloOptions,
// SpreadDecreaseOptions, SolverOptions, the batch query overrides — can do
// so without pulling the grouped-adjacency machinery into its TU.

#pragma once

#include <cstdint>

namespace vblock {

/// How the stochastic traversals draw live edges.
///
/// Both kinds sample the *same* distribution — every edge (u,v) is live
/// independently with probability p(u,v) — but they consume randomness
/// differently, so for a fixed seed the two kinds visit different (equally
/// valid, i.i.d.) sampled worlds. Within one kind all determinism
/// guarantees hold unchanged: sample i always draws from stream
/// MixSeed(seed, i), and results are invariant to thread count and draw
/// ISA.
enum class SamplerKind : uint8_t {
  /// One Bernoulli coin per examined edge (the textbook loop). Kept as the
  /// differential-testing reference and for workloads whose adjacency does
  /// not group (every edge probability distinct).
  kPerEdgeCoin = 0,
  /// Geometric skip-ahead over the probability-grouped adjacency
  /// (graph/prob_grouped_view.h): within a run of identical-probability
  /// edges, jump straight to the next live edge instead of testing each
  /// edge. Each run draws by block fills of skips (sampling/batched_draw.h),
  /// scalar jumps, or coins, whichever the build-time cost model picks.
  /// Expected per-vertex cost drops from O(degree) to O(probability
  /// classes + successes).
  kGeometricSkip = 1,
};

}  // namespace vblock
