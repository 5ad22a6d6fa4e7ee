// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Algorithm 2 — DecreaseESComputation: the paper's key technical
// contribution. One pass over θ sampled graphs and their dominator trees
// yields, for *every* candidate blocker u at once, an estimate of the
// decrease of expected spread if u were blocked:
//
//   Δ[u] = (1/θ) Σ_samples |subtree of u in the dominator tree|   (Thm. 4+6)
//
// versus the Monte-Carlo baseline which re-simulates per candidate. The
// sampled estimators below are one-shot calls into the one θ-loop,
// SpreadDecreaseEngine::Build (core/spread_decrease_engine.h): a
// temporary engine is built and its Scores() returned.

#pragma once

#include <cstdint>
#include <vector>

#include "cascade/triggering.h"
#include "common/sampler_kind.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/vertex_mask.h"
#include "sampling/sample_reuse.h"

namespace vblock {

/// Sampling parameters for Algorithm 2.
struct SpreadDecreaseOptions {
  /// Number of sampled graphs θ (paper default 10^4).
  uint32_t theta = 10000;
  /// Base RNG seed; sample i uses MixSeed(seed, i), so results do not
  /// depend on the thread count.
  uint64_t seed = 1;
  /// Most process-executor slots the θ-loop uses (1 = inline on the
  /// calling thread); clamped to θ and to ExecutorWidth(). Never changes
  /// results.
  uint32_t threads = 1;
  /// How SpreadDecreaseEngine maintains its sample pool across blocker
  /// rounds (no effect on the one-shot Compute* results). Block prunes
  /// the affected samples' stored worlds in both modes; Unblock draws
  /// fresh coins under kResample (paper-faithful; an IC pool extends only
  /// the samples the vertex joins) and re-prunes the fixed worlds under
  /// kPrune (fastest). See sampling/sample_pool.h and
  /// docs/DESIGN.md §5.
  SampleReuse sample_reuse = SampleReuse::kResample;
  /// How the θ live-edge samples are drawn (common/sampler_kind.h):
  /// kGeometricSkip jumps over the probability-grouped adjacency,
  /// kPerEdgeCoin flips one coin per edge. Same distribution; the kinds
  /// consume randomness differently, so they visit different worlds for
  /// the same seed. All determinism guarantees (thread-count invariance,
  /// warm ≡ cold) hold within either kind. See docs/DESIGN.md §7.
  SamplerKind sampler_kind = SamplerKind::kGeometricSkip;
};

/// Output of Algorithm 2.
struct SpreadDecreaseResult {
  /// Δ[u] for every vertex of the (unified) graph; Δ[root] and Δ of blocked
  /// or unreachable vertices are 0.
  std::vector<double> delta;
  /// Estimate of the current expected spread E({root}, G[V\B]) — the average
  /// sample size. Falls out of the same pass for free (Lemma 1).
  double expected_spread = 0;
};

/// Runs Algorithm 2 on the IC model: θ live-edge samples rooted at `root`
/// (skipping `blocked`), one Semi-NCA dominator tree per sample, one
/// subtree-size pass per tree. Holds a θ-sample pool for the call.
SpreadDecreaseResult ComputeSpreadDecrease(
    const Graph& g, VertexId root, const SpreadDecreaseOptions& options,
    const VertexMask* blocked = nullptr);

/// Exact Δ by exhaustive world enumeration (Definition 4 enumerated instead
/// of sampled) — zero sampling error; used by tests against the paper's
/// Example 2 numbers, and feasible only for ≤ max_uncertain_edges uncertain
/// edges in the root-reachable region.
Result<SpreadDecreaseResult> ComputeSpreadDecreaseExact(
    const Graph& g, VertexId root, const VertexMask* blocked = nullptr,
    int max_uncertain_edges = 25);

/// Algorithm 2 under a general triggering model (paper §V-E): identical
/// dominator-tree machinery over triggering-set samples.
SpreadDecreaseResult ComputeSpreadDecreaseTriggering(
    const Graph& g, const TriggeringModel& model, VertexId root,
    const SpreadDecreaseOptions& options, const VertexMask* blocked = nullptr);

}  // namespace vblock
