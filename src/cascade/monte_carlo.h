// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Monte-Carlo Simulation (MCS) spread estimation (paper §V-B1).
//
// This is the estimator the state-of-the-art BaselineGreedy uses: r
// independent IC runs, averaged. The paper's default is r = 10000 for the
// greedy loop and r = 100000 for final result evaluation.

#pragma once

#include <cstdint>
#include <vector>

#include "common/sampler_kind.h"
#include "graph/graph.h"
#include "graph/vertex_mask.h"

namespace vblock {

/// Parameters for Monte-Carlo spread estimation.
struct MonteCarloOptions {
  /// Number of simulation rounds (paper: r).
  uint32_t rounds = 10000;
  /// Base RNG seed; round i uses MixSeed(seed, i).
  uint64_t seed = 1;
  /// Most process-executor slots (1 = inline). Results are identical for
  /// any value (per-round seeding + integer per-slot reduction).
  uint32_t threads = 1;
  /// How each simulation draws live edges (common/sampler_kind.h). The two
  /// kinds consume randomness differently, so estimates differ between
  /// kinds (both unbiased); within a kind, (seed, rounds) pins the result.
  SamplerKind sampler_kind = SamplerKind::kGeometricSkip;
};

/// Estimates E(S, G[V\B]) — the expected number of active vertices (seeds
/// included) — by averaging `options.rounds` IC simulations.
double EstimateSpread(const Graph& g, const std::vector<VertexId>& seeds,
                      const MonteCarloOptions& options,
                      const VertexMask* blocked = nullptr);

/// Convenience overload: blockers given as a vertex list.
double EstimateSpreadWithBlockers(const Graph& g,
                                  const std::vector<VertexId>& seeds,
                                  const std::vector<VertexId>& blockers,
                                  const MonteCarloOptions& options);

/// Per-vertex activation probability estimates P_G(v, S) (Definition 1),
/// from `options.rounds` simulations; honors `options.threads` with
/// per-slot hit counters merged in slot order, so the estimate is identical
/// for any thread count. Used by tests against exact values.
std::vector<double> EstimateActivationProbabilities(
    const Graph& g, const std::vector<VertexId>& seeds,
    const MonteCarloOptions& options, const VertexMask* blocked = nullptr);

}  // namespace vblock
