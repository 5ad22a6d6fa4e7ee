// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Exact expected-spread computation for small graphs.
//
// The paper compares GreedyReplace against the optimum using exact spread
// values on ~100-vertex extracts (Tables V/VI, via the BDD method of
// Maehara et al. [39]). We implement the live-edge world-enumeration
// equivalent: E(S,G) = Σ_worlds Pr[world] · |reachable(S, world)|, where a
// world fixes the outcome of every edge with probability strictly between 0
// and 1. Edges with p=1 are always live and p=0 edges never — only
// "uncertain" edges are enumerated, so the cost is O(2^k · m) for k
// uncertain edges. Both functions are one fold over
// sampling/world_enumerator.h's ForEachWorld, the library's one world loop.
// Feasible for k ≤ ~25; beyond that callers fall back to high-round
// Monte-Carlo (see core/evaluator.h).

#pragma once

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/vertex_mask.h"

namespace vblock {

/// Limits for the exact computation.
struct ExactSpreadOptions {
  /// Maximum number of edges with 0 < p < 1 before giving up
  /// (ResourceExhausted). 2^25 worlds ≈ 33M BFS runs upper bound; the
  /// restriction to the seed-reachable region usually cuts k drastically.
  int max_uncertain_edges = 25;
};

/// Exactly computes E(S, G[V\B]) — the expected number of active vertices,
/// seeds included; blocked and duplicate seeds add nothing. Returns
/// OutOfRange for a seed ≥ g.NumVertices(), and ResourceExhausted when more
/// than `options.max_uncertain_edges` uncertain edges — or 64 or more —
/// remain after restricting to the seed-reachable region.
Result<double> ComputeExactSpread(const Graph& g,
                                  const std::vector<VertexId>& seeds,
                                  const VertexMask* blocked = nullptr,
                                  const ExactSpreadOptions& options = {});

/// Exactly computes the activation probability P_G(v, S) of every vertex
/// (Definition 1). Same feasibility constraints as ComputeExactSpread.
Result<std::vector<double>> ComputeExactActivationProbabilities(
    const Graph& g, const std::vector<VertexId>& seeds,
    const VertexMask* blocked = nullptr, const ExactSpreadOptions& options = {});

}  // namespace vblock
