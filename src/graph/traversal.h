// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Deterministic graph traversals (no edge sampling): BFS reachability with
// blocker masks, used by tests, the exact-spread world enumeration, and the
// certain-edge (p=1) fast paths.

#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/vertex_mask.h"

namespace vblock {

/// Vertices reachable from `source` following all out-edges.
/// `blocked` (optional) excludes vertices: a blocked vertex is neither
/// visited nor expanded; a blocked source yields the empty set.
std::vector<VertexId> ReachableFrom(const Graph& g, VertexId source,
                                    const VertexMask* blocked = nullptr);

/// Multi-source variant: union of vertices reachable from `sources`.
std::vector<VertexId> ReachableFromSet(const Graph& g,
                                       const std::vector<VertexId>& sources,
                                       const VertexMask* blocked = nullptr);

/// Number of vertices reachable from `source` (σ(s,G) in Table II, for a
/// deterministic graph).
VertexId CountReachable(const Graph& g, VertexId source,
                        const VertexMask* blocked = nullptr);

/// Depth-first preorder of vertices reachable from `source` (ties broken by
/// adjacency order). The dominator tests check it against the `order` of
/// ComputeDominatorTree.
std::vector<VertexId> DfsPreorder(const Graph& g, VertexId source);

}  // namespace vblock
