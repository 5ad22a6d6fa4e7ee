// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Betweenness centrality (Brandes 2001) and the betweenness-based blocker
// heuristic. The paper's related work cites betweenness+out-degree blocking
// (Yao et al. [31]) as a pre-greedy approach; this module provides that
// baseline for comparison, with optional pivot sampling for large graphs.

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace vblock {

/// Parameters for betweenness computation.
struct BetweennessOptions {
  /// Number of source pivots to run Brandes from. 0 = all vertices (exact,
  /// O(n·m)); otherwise `pivots` uniformly random sources scaled by
  /// n/pivots (the standard unbiased estimator).
  uint32_t pivots = 0;
  /// RNG seed for pivot sampling.
  uint64_t seed = 1;
};

/// Betweenness centrality of every vertex on the directed unweighted
/// structure (edge probabilities are ignored; betweenness is a structural
/// baseline). Endpoint pairs are not counted (standard convention).
std::vector<double> ComputeBetweenness(const Graph& g,
                                       const BetweennessOptions& options = {});

/// Blocker heuristic: the b non-seed vertices with the highest betweenness
/// (ties toward the smaller id).
std::vector<VertexId> BetweennessBlockers(
    const Graph& g, const std::vector<VertexId>& seeds, uint32_t budget,
    const BetweennessOptions& options = {});

}  // namespace vblock
