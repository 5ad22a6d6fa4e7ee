// Semi-NCA dominator-tree construction (Georgiadis, Tarjan & Werneck,
// "Finding Dominators in Practice", JGAA 2006): Lengauer–Tarjan's
// semidominators from the simple eval-link with path compression, then
// each idom as the nearest common ancestor of its DFS parent and its
// semidominator in the partial dominator tree. Implemented as the reusable
// DominatorWorkspace so the per-sample hot loop of Algorithm 2 performs no
// heap allocations in steady state (every working array is grow-only and
// reused across calls).
//
// All internal arrays are indexed by DFS number (1-based; 0 = unreachable /
// null): semidominators are minima over DFS numbers, which is why the
// id-space switch matters. Predecessor lists are a counting-sort CSR
// instead of per-vertex vectors.

#include <vector>

#include "domtree/dominator_tree.h"

namespace vblock {

// Iterative DFS assigning 1-based numbers and recording tree parents (in
// DFS-number space).
void DominatorWorkspace::Dfs(const FlatGraphView& g, VertexId root) {
  count_ = 0;
  dfn_.assign(g.NumVertices(), 0);
  vertex_.assign(g.NumVertices() + 1, kInvalidVertex);
  parent_.assign(g.NumVertices() + 1, 0);
  dfs_stack_v_.clear();
  dfs_stack_k_.clear();

  dfn_[root] = ++count_;
  vertex_[count_] = root;
  dfs_stack_v_.push_back(root);
  dfs_stack_k_.push_back(0);
  while (!dfs_stack_v_.empty()) {
    const VertexId u = dfs_stack_v_.back();
    const uint32_t k = dfs_stack_k_.back();
    auto targets = g.OutNeighbors(u);
    if (k >= targets.size()) {
      dfs_stack_v_.pop_back();
      dfs_stack_k_.pop_back();
      continue;
    }
    dfs_stack_k_.back() = k + 1;
    const VertexId v = targets[k];
    if (dfn_[v] == 0) {
      dfn_[v] = ++count_;
      vertex_[count_] = v;
      parent_[dfn_[v]] = dfn_[u];
      dfs_stack_v_.push_back(v);
      dfs_stack_k_.push_back(0);
    }
  }
}

// Predecessor lists in DFS-number space as a CSR built by counting sort:
// every edge whose source is reachable contributes one entry (its target is
// then reachable too, by DFS).
void DominatorWorkspace::BuildPredCsr(const FlatGraphView& g) {
  pred_begin_.assign(count_ + 2, 0);
  for (uint32_t w = 1; w <= count_; ++w) {
    for (VertexId v : g.OutNeighbors(vertex_[w])) {
      ++pred_begin_[dfn_[v] + 1];
    }
  }
  for (uint32_t w = 1; w <= count_ + 1; ++w) pred_begin_[w] += pred_begin_[w - 1];
  pred_.resize(pred_begin_[count_ + 1]);
  pred_cursor_.assign(pred_begin_.begin(), pred_begin_.end() - 1);
  for (uint32_t w = 1; w <= count_; ++w) {
    for (VertexId v : g.OutNeighbors(vertex_[w])) {
      pred_[pred_cursor_[dfn_[v]]++] = w;
    }
  }
}

// Path-compression EVAL: returns the vertex x with minimum semi_[x] on the
// linked path from v up to (excluding) the forest root.
uint32_t DominatorWorkspace::Eval(uint32_t v) {
  if (ancestor_[v] == 0) return label_[v];
  Compress(v);
  return label_[v];
}

void DominatorWorkspace::Compress(uint32_t v) {
  // Collect the ancestor chain, then fold it top-down (iterative to keep
  // the stack flat on path graphs).
  compress_stack_.clear();
  while (ancestor_[ancestor_[v]] != 0) {
    compress_stack_.push_back(v);
    v = ancestor_[v];
  }
  while (!compress_stack_.empty()) {
    uint32_t w = compress_stack_.back();
    compress_stack_.pop_back();
    uint32_t a = ancestor_[w];
    if (semi_[label_[a]] < semi_[label_[w]]) label_[w] = label_[a];
    ancestor_[w] = ancestor_[a];
  }
}

void DominatorWorkspace::ComputeIdoms() {
  semi_.resize(count_ + 1);
  label_.resize(count_ + 1);
  ancestor_.assign(count_ + 1, 0);
  dom_.resize(count_ + 1);
  for (uint32_t i = 1; i <= count_; ++i) {
    semi_[i] = i;
    label_[i] = i;
  }
  // Semidominators in reverse DFS order, then LINK(parent[w], w).
  for (uint32_t w = count_; w >= 2; --w) {
    for (uint32_t e = pred_begin_[w]; e < pred_begin_[w + 1]; ++e) {
      uint32_t u = Eval(pred_[e]);
      if (semi_[u] < semi_[w]) semi_[w] = semi_[u];
    }
    ancestor_[w] = parent_[w];
  }
  // idom(w) = NCA(parent(w), semi(w)) in the tree built so far: walk up
  // from the parent while above the semidominator. DFS order guarantees
  // every vertex on the walk already has its idom; the walk stops at the
  // root at the latest, whose dom_ entry is never read.
  for (uint32_t w = 2; w <= count_; ++w) {
    uint32_t d = parent_[w];
    while (d > semi_[w]) d = dom_[d];
    dom_[w] = d;
  }
}

void DominatorWorkspace::ComputeDominatorTreeInto(const FlatGraphView& g,
                                                  VertexId root,
                                                  DominatorTree* tree) {
  VBLOCK_CHECK_MSG(root < g.NumVertices(), "root out of range");
  Dfs(g, root);
  BuildPredCsr(g);
  ComputeIdoms();

  tree->root = root;
  tree->idom.assign(g.NumVertices(), kInvalidVertex);
  for (uint32_t w = 2; w <= count_; ++w) {
    tree->idom[vertex_[w]] = vertex_[dom_[w]];
  }
  tree->order.assign(vertex_.begin() + 1, vertex_.begin() + 1 + count_);
}

DominatorTree ComputeDominatorTree(const FlatGraphView& g, VertexId root) {
  DominatorWorkspace workspace;
  DominatorTree tree;
  workspace.ComputeDominatorTreeInto(g, root, &tree);
  return tree;
}

}  // namespace vblock
