// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Incremental construction of CSR graphs.

#pragma once

#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace vblock {

/// Accumulates edges and finalizes them into an immutable CSR Graph.
///
/// Parallel edges (same source and target) are merged with the noisy-or rule
/// p = 1 − (1−p1)(1−p2): under the IC model two independent activation
/// chances along parallel edges are equivalent to one combined chance.
/// Self-loops are dropped (they never change activation). Both behaviours
/// can be disabled via the Options.
class GraphBuilder {
 public:
  struct Options {
    /// Merge parallel edges with noisy-or (otherwise keep the last one).
    bool merge_parallel_edges = true;
    /// Drop u→u edges.
    bool drop_self_loops = true;
  };

  GraphBuilder() = default;
  explicit GraphBuilder(Options options) : options_(options) {}

  /// Declares at least `n` vertices (ids 0..n-1 valid even if isolated).
  void ReserveVertices(VertexId n);

  /// Adds a directed edge u→v with propagation probability p ∈ [0,1].
  /// Vertex ids grow the graph as needed.
  void AddEdge(VertexId u, VertexId v, double probability = 1.0);

  /// Adds u→v and v→u with the same probability (paper: "for an undirected
  /// graph, we consider each edge as bi-directional").
  void AddUndirectedEdge(VertexId u, VertexId v, double probability = 1.0);

  /// Number of edges added so far (before merging).
  size_t PendingEdgeCount() const { return edges_.size(); }

  /// Validates probabilities and finalizes the CSR arrays. The builder is
  /// left empty afterwards.
  Result<Graph> Build();

 private:
  Options options_;
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace vblock
