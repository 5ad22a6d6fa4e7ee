// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Multi-seed to single-seed reduction (paper §V, "From Multiple Seeds to
// One Seed").
//
// A unified seed vertex s' replaces all seeds: for every vertex u receiving
// seed edges with probabilities p1..ph, one edge s'→u carries probability
// 1 − Π(1−pi). Since an active IC vertex gets one independent activation
// chance per out-neighbor, the reduction preserves both the expected spread
// (up to the seed-count constant) and the optimal blocker set.

#pragma once

#include <vector>

#include "graph/graph.h"

namespace vblock {

/// A single-seed instance derived from (graph, seed set) plus id mappings.
struct UnifiedInstance {
  /// The unified graph: all non-seed vertices (re-numbered) plus the
  /// super-seed as the highest id.
  Graph graph;
  /// Super-seed vertex id in `graph`.
  VertexId root = 0;
  /// Unified id -> original id (root maps to kInvalidVertex).
  std::vector<VertexId> to_original;
  /// Original id -> unified id (seeds map to kInvalidVertex — they no
  /// longer exist and can never be blocked).
  std::vector<VertexId> to_unified;
  /// Number of distinct seeds in the original instance.
  VertexId num_seeds = 0;

  /// Converts a unified-graph spread E({s'}, G') to the original-graph
  /// spread E(S, G): the super-seed contributes 1 where the original seeds
  /// contribute |S|.
  double ToOriginalSpread(double unified_spread) const {
    return unified_spread - 1.0 + static_cast<double>(num_seeds);
  }

  /// Maps unified blocker ids back to original ids.
  std::vector<VertexId> BlockersToOriginal(
      const std::vector<VertexId>& unified_blockers) const;
};

/// Builds the unified single-seed instance. Seeds must be valid vertex ids;
/// duplicates are ignored. Aborts (CHECK) on an empty seed set.
UnifiedInstance UnifySeeds(const Graph& g, const std::vector<VertexId>& seeds);

}  // namespace vblock
