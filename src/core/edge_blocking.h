// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Extension: influence minimization by *edge* blocking (link removal).
//
// The paper's related work (§II, Kimura et al. [13]) studies removing k
// edges instead of vertices. This module solves that variant with the same
// dominator-tree machinery via an exact reduction:
//
//   Split every edge e=(u,v,p) into u→x_e (probability p) and x_e→v
//   (probability 1), where x_e is a fresh auxiliary vertex. Under the IC
//   model the split graph is diffusion-equivalent, and BLOCKING THE VERTEX
//   x_e is exactly REMOVING THE EDGE e. Per-edge spread decreases are then
//   the weighted dominator-subtree sizes of the x_e vertices, with weight 0
//   on auxiliary vertices so only real vertices count (Theorems 4/6 apply
//   unchanged).

#pragma once

#include <vector>

#include "common/status.h"
#include "core/blocker_result.h"
#include "core/spread_decrease.h"
#include "graph/graph.h"

namespace vblock {

/// The edge-split reduction of a graph.
struct EdgeSplitInstance {
  /// Split graph: original vertices keep their ids; edge i (in
  /// `edges` order) gets the auxiliary vertex `first_aux + i`.
  Graph graph;
  /// Id of the first auxiliary vertex (== original NumVertices()).
  VertexId first_aux = 0;
  /// Original edges, aligned with auxiliary ids.
  std::vector<Edge> edges;
  /// Per-vertex weights for the split graph: 1 for original vertices, 0
  /// for auxiliaries.
  std::vector<double> weights;

  /// The original edge represented by auxiliary vertex `aux`.
  const Edge& EdgeOf(VertexId aux) const {
    VBLOCK_DCHECK(aux >= first_aux);
    return edges[aux - first_aux];
  }
};

/// Builds the edge-split reduction.
EdgeSplitInstance SplitEdges(const Graph& g);

/// Per-edge spread decreases: result[i] estimates how much the expected
/// spread of `seeds` drops when edge i (in SplitEdges(g).edges order) is
/// removed. Sampled (Algorithm 2 on the split graph).
std::vector<double> ComputeEdgeSpreadDecrease(
    const Graph& g, const std::vector<VertexId>& seeds,
    const SpreadDecreaseOptions& options);

/// Exact per-edge spread decreases via world enumeration (small graphs).
Result<std::vector<double>> ComputeEdgeSpreadDecreaseExact(
    const Graph& g, const std::vector<VertexId>& seeds,
    int max_uncertain_edges = 25);

/// Options for the greedy edge blocker.
struct EdgeBlockingOptions {
  /// Number of edges to remove (k in [13]).
  uint32_t budget = 10;
  /// Sampled graphs θ in the engine's pool.
  uint32_t theta = 10000;
  /// Base RNG seed.
  uint64_t seed = 1;
  /// Most process-executor slots per sampling pass (1 = inline).
  uint32_t threads = 1;
  /// Cooperative deadline in seconds (0 = none).
  double time_limit_seconds = 0;
};

/// Result of GreedyEdgeBlocking.
struct EdgeBlockingResult {
  /// Removed edges, in selection order.
  std::vector<Edge> blocked_edges;
  GreedyRunStats stats;
};

/// Greedy edge removal on one weighted SpreadDecreaseEngine over the split
/// graph: each round removes the remaining edge with the largest spread
/// decrease, and Block()ing its auxiliary vertex re-prunes and re-scores
/// only the samples that contained it. The deadline is checked inside the
/// θ-loop as well as between rounds.
EdgeBlockingResult GreedyEdgeBlocking(const Graph& g,
                                      const std::vector<VertexId>& seeds,
                                      const EdgeBlockingOptions& options);

/// Utility: a copy of `g` with the given edges removed (used to evaluate
/// an edge-blocking result with the ordinary spread tools).
Graph RemoveEdges(const Graph& g, const std::vector<Edge>& edges);

}  // namespace vblock
