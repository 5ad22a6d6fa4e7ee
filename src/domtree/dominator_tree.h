// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Dominator trees (paper §V-B3).
//
// Vertex u dominates v iff every path from the root to v passes through u
// (Definition 5); idom(v) is the unique closest strict dominator
// (Definition 6). The dominator tree is rooted at the source with parent
// function idom. Theorem 6: σ→u(s,g) — the number of vertices unreachable
// after blocking u — equals the size of u's subtree in the dominator tree,
// which is what lets Algorithm 2 score every candidate blocker in one scan.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "domtree/flat_graph_view.h"

namespace vblock {

/// Immediate-dominator array plus derived queries.
struct DominatorTree {
  /// idom[v] — immediate dominator; kInvalidVertex for the root and for
  /// vertices unreachable from it.
  std::vector<VertexId> idom;
  /// Root the tree was computed from.
  VertexId root = 0;
  /// Every reachable vertex once, each after its idom (root first), so a
  /// reverse scan visits every subtree before its root. The fast algorithm
  /// gives DFS preorder, the reference reverse postorder: both qualify
  /// because a dominator is an ancestor in any DFS tree.
  std::vector<VertexId> order;

  /// True iff v is reachable from the root (the root itself included).
  bool Reachable(VertexId v) const {
    return v == root || idom[v] != kInvalidVertex;
  }

  /// True iff u dominates v (both reachable; u == v counts).
  bool Dominates(VertexId u, VertexId v) const;
};

/// Reusable scratch space for repeated dominator-tree computations.
///
/// Algorithm 2 builds one dominator tree per sampled graph — θ per greedy
/// round. The free functions below allocate a dozen working arrays per
/// call; a DominatorWorkspace keeps them alive between calls (grow-only,
/// so steady state performs zero heap allocations) and is the form the
/// scoring engine uses. One workspace per thread; not thread-safe.
class DominatorWorkspace {
 public:
  /// Semi-NCA into `tree` (resized/overwritten; its capacity is reused
  /// too). Same output as ComputeDominatorTree.
  void ComputeDominatorTreeInto(const FlatGraphView& g, VertexId root,
                                DominatorTree* tree);

  /// Subtree sizes into `sizes` (resized/overwritten), folded over
  /// `tree.order` reversed. Same output as ComputeSubtreeSizes. With a
  /// non-empty `weight` (0/1 per vertex), only vertices of weight 1 are
  /// counted: the edge-blocking extension gives its auxiliary edge-split
  /// vertices weight 0 so that only real vertices count toward the spread
  /// decrease. Needs no scratch.
  static void ComputeSubtreeSizesInto(const DominatorTree& tree,
                                      std::vector<VertexId>* sizes,
                                      std::span<const uint8_t> weight = {});

  /// Heap bytes of the working arrays (grow-only, so this is the high-water
  /// mark of the regions computed so far).
  uint64_t MemoryUsageBytes() const;

 private:
  // Semi-NCA state, indexed by 1-based DFS number (0 = null /
  // unreachable). Implemented in semi_nca.cc.
  void Dfs(const FlatGraphView& g, VertexId root);
  void BuildPredCsr(const FlatGraphView& g);
  uint32_t Eval(uint32_t v);
  void Compress(uint32_t v);
  void ComputeIdoms();

  uint32_t count_ = 0;
  std::vector<uint32_t> dfn_;     // vertex -> DFS number (0 = unreachable)
  std::vector<VertexId> vertex_;  // DFS number -> vertex
  std::vector<uint32_t> parent_, semi_, label_, ancestor_, dom_;
  // Predecessor lists as CSR (counting sort over the live edges).
  std::vector<uint32_t> pred_begin_, pred_cursor_, pred_;
  std::vector<uint32_t> dfs_stack_v_, dfs_stack_k_, compress_stack_;
};

/// Computes the dominator tree of `g` from `root` with Semi-NCA
/// (Georgiadis, Tarjan & Werneck, JGAA 2006): Lengauer–Tarjan
/// semidominators by simple eval-link with path compression, then one
/// nearest-common-ancestor walk per vertex. O(n²) worst case on deep
/// trees, but faster than Lengauer–Tarjan in practice at every region
/// size Algorithm 2 meets. One-shot convenience wrapper over
/// DominatorWorkspace.
DominatorTree ComputeDominatorTree(const FlatGraphView& g, VertexId root);

/// Reference implementation: iterative dataflow dominators
/// (Cooper–Harvey–Kennedy), `order` in reverse postorder. O(n·m) worst
/// case — tests cross-validate Semi-NCA against this on random graphs.
DominatorTree ComputeDominatorTreeNaive(const FlatGraphView& g, VertexId root);

/// Subtree sizes of the dominator tree: size[v] = #vertices in the subtree
/// rooted at v (unreachable vertices get 0, the root's size is the number of
/// reachable vertices). This is the σ→u(s,g) of Theorem 6.
std::vector<VertexId> ComputeSubtreeSizes(const DominatorTree& tree);

}  // namespace vblock
