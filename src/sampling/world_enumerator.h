// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Exhaustive live-edge world enumeration — the one exact oracle.
//
// For graphs whose seed-reachable region has few edges with 0 < p < 1, the
// distribution of Definition 4 can be enumerated exactly: every "world"
// fixes each uncertain edge live/dead and carries the product probability.
// Edges with p = 1 are always live and p = 0 edges never, so k uncertain
// edges cost O(2^k · m). This is the only 2^k world loop in the library:
// the exact spread and activation probabilities (cascade/exact_spread.h)
// and the exact Δ (core/spread_decrease.h ComputeSpreadDecreaseExact) are
// folds over ForEachWorld, and tests hold the sampled engine to them.

#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "graph/vertex_mask.h"
#include "sampling/sampled_graph.h"

namespace vblock {

/// Enumerates every live-edge world of the seed-reachable region.
class WorldEnumerator {
 public:
  /// Restricts to unblocked vertices reachable from the unblocked `seeds`
  /// through p>0 edges. The unblocked seeds take local ids 0, 1, … in
  /// first-occurrence order (duplicates dropped), and every world's region
  /// starts from all of them. If every seed is blocked the region is
  /// empty and there is one world. Seeds must be < g.NumVertices().
  WorldEnumerator(const Graph& g, const std::vector<VertexId>& seeds,
                  const VertexMask* blocked = nullptr);

  /// Single root (the Δ path): the root must not be blocked, so it is
  /// local id 0 of every world's region.
  WorldEnumerator(const Graph& g, VertexId root,
                  const VertexMask* blocked = nullptr);

  /// Number of uncertain edges k; enumeration visits 2^k worlds.
  int NumUncertainEdges() const { return static_cast<int>(uncertain_.size()); }

  /// Invokes `fn(weight, sample)` once per world of non-zero weight, in
  /// world-bit order. `sample` is the seed-reachable live region of that
  /// world in SampledGraph form, in BFS order from the seeds; weights over
  /// all calls sum to 1. Returns ResourceExhausted without invoking `fn`
  /// when k exceeds `max_uncertain_edges`, and whenever k ≥ 64 (2^k no
  /// longer fits the world counter).
  Status ForEachWorld(
      const std::function<void(double, const SampledGraph&)>& fn,
      int max_uncertain_edges = 25) const;

 private:
  struct UncertainEdge {
    VertexId source;  // universe-local ids
    VertexId target;
    double probability;
  };

  // Universe = seed-reachable (p>0) unblocked region, local ids, the
  // unblocked seeds first.
  std::vector<VertexId> members_;          // local -> parent
  VertexId num_seeds_ = 0;                 // locals [0, num_seeds_) are seeds
  std::vector<uint32_t> certain_offsets_;  // CSR of p==1 edges
  std::vector<VertexId> certain_targets_;
  std::vector<UncertainEdge> uncertain_;
};

}  // namespace vblock
