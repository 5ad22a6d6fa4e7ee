#include "domtree/dominator_tree.h"

#include <utility>

namespace vblock {

bool DominatorTree::Dominates(VertexId u, VertexId v) const {
  if (!Reachable(u) || !Reachable(v)) return false;
  // Walk v's idom chain up to the root; depth is at most the tree height.
  while (true) {
    if (v == u) return true;
    if (v == root) return false;
    v = idom[v];
  }
}

DominatorTree ComputeDominatorTreeNaive(const FlatGraphView& g,
                                        VertexId root) {
  VBLOCK_CHECK_MSG(root < g.NumVertices(), "root out of range");
  const VertexId n = g.NumVertices();

  // Reverse postorder of the reachable subgraph (root first).
  std::vector<VertexId> postorder;
  {
    std::vector<uint8_t> visited(n, 0);
    std::vector<std::pair<VertexId, uint32_t>> stack;
    visited[root] = 1;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [u, k] = stack.back();
      auto targets = g.OutNeighbors(u);
      if (k >= targets.size()) {
        postorder.push_back(u);
        stack.pop_back();
        continue;
      }
      VertexId v = targets[k++];
      if (!visited[v]) {
        visited[v] = 1;
        stack.emplace_back(v, 0);
      }
    }
  }
  std::vector<VertexId> rpo(postorder.rbegin(), postorder.rend());
  std::vector<uint32_t> po_number(n, 0);
  for (uint32_t i = 0; i < postorder.size(); ++i) {
    po_number[postorder[i]] = i + 1;  // 0 = unreachable
  }

  // Predecessor lists restricted to reachable vertices.
  std::vector<std::vector<VertexId>> preds(n);
  for (VertexId u : rpo) {
    for (VertexId v : g.OutNeighbors(u)) preds[v].push_back(u);
  }

  // Cooper–Harvey–Kennedy iteration. idom in vertex space; root's idom is
  // itself during the fixpoint (simplifies Intersect).
  std::vector<VertexId> idom(n, kInvalidVertex);
  idom[root] = root;
  auto intersect = [&](VertexId a, VertexId b) {
    while (a != b) {
      while (po_number[a] < po_number[b]) a = idom[a];
      while (po_number[b] < po_number[a]) b = idom[b];
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v : rpo) {
      if (v == root) continue;
      VertexId new_idom = kInvalidVertex;
      for (VertexId p : preds[v]) {
        if (idom[p] == kInvalidVertex) continue;  // not yet processed
        new_idom = (new_idom == kInvalidVertex) ? p : intersect(p, new_idom);
      }
      if (new_idom != idom[v]) {
        idom[v] = new_idom;
        changed = true;
      }
    }
  }

  DominatorTree tree;
  tree.root = root;
  tree.idom = std::move(idom);
  tree.idom[root] = kInvalidVertex;  // public convention
  tree.order = std::move(rpo);
  return tree;
}

uint64_t DominatorWorkspace::MemoryUsageBytes() const {
  uint64_t bytes = VectorBytes(dfn_) + VectorBytes(vertex_);
  for (const std::vector<uint32_t>* v :
       {&parent_, &semi_, &label_, &ancestor_, &dom_, &pred_begin_,
        &pred_cursor_, &pred_, &dfs_stack_v_, &dfs_stack_k_,
        &compress_stack_}) {
    bytes += VectorBytes(*v);
  }
  return bytes;
}

void DominatorWorkspace::ComputeSubtreeSizesInto(
    const DominatorTree& tree, std::vector<VertexId>* sizes) {
  sizes->assign(tree.idom.size(), 0);
  VBLOCK_DCHECK(!tree.order.empty() && tree.order[0] == tree.root);
  // Reversed, the order finishes every vertex's subtree before folding it
  // into its idom.
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    const VertexId v = *it;
    (*sizes)[v] += 1;
    if (v != tree.root) (*sizes)[tree.idom[v]] += (*sizes)[v];
  }
}

std::vector<VertexId> ComputeSubtreeSizes(const DominatorTree& tree) {
  std::vector<VertexId> sizes;
  DominatorWorkspace::ComputeSubtreeSizesInto(tree, &sizes);
  return sizes;
}

}  // namespace vblock
