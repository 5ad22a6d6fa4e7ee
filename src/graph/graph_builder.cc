#include "graph/graph_builder.h"

#include <algorithm>
#include <string>

namespace vblock {

void GraphBuilder::ReserveVertices(VertexId n) {
  num_vertices_ = std::max(num_vertices_, n);
}

void GraphBuilder::AddEdge(VertexId u, VertexId v, double probability) {
  num_vertices_ = std::max({num_vertices_, u + 1, v + 1});
  edges_.push_back(Edge{u, v, probability});
}

void GraphBuilder::AddUndirectedEdge(VertexId u, VertexId v,
                                     double probability) {
  AddEdge(u, v, probability);
  AddEdge(v, u, probability);
}

Result<Graph> GraphBuilder::Build() {
  for (const Edge& e : edges_) {
    if (e.probability < 0.0 || e.probability > 1.0) {
      return Status::InvalidArgument(
          "edge probability out of [0,1]: " + std::to_string(e.probability) +
          " on edge " + std::to_string(e.source) + "->" +
          std::to_string(e.target));
    }
  }

  if (options_.drop_self_loops) {
    std::erase_if(edges_, [](const Edge& e) { return e.source == e.target; });
  }

  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    return a.source != b.source ? a.source < b.source : a.target < b.target;
  });

  if (!edges_.empty()) {
    size_t write = 0;
    for (size_t read = 1; read < edges_.size(); ++read) {
      Edge& prev = edges_[write];
      const Edge& cur = edges_[read];
      if (cur.source == prev.source && cur.target == prev.target) {
        if (options_.merge_parallel_edges) {
          prev.probability =
              1.0 - (1.0 - prev.probability) * (1.0 - cur.probability);
        } else {
          prev.probability = cur.probability;
        }
      } else {
        edges_[++write] = cur;
      }
    }
    edges_.resize(write + 1);
  }

  Graph g;
  const VertexId n = num_vertices_;
  const size_t m = edges_.size();

  g.out_offsets_.assign(n + 1, 0);
  g.out_targets_.resize(m);
  g.out_probs_.resize(m);
  for (const Edge& e : edges_) ++g.out_offsets_[e.source + 1];
  for (VertexId u = 0; u < n; ++u) g.out_offsets_[u + 1] += g.out_offsets_[u];
  {
    std::vector<EdgeId> cursor(g.out_offsets_.begin(), g.out_offsets_.end() - 1);
    for (const Edge& e : edges_) {
      EdgeId slot = cursor[e.source]++;
      g.out_targets_[slot] = e.target;
      g.out_probs_[slot] = e.probability;
    }
  }

  g.in_offsets_.assign(n + 1, 0);
  g.in_sources_.resize(m);
  g.in_probs_.resize(m);
  for (const Edge& e : edges_) ++g.in_offsets_[e.target + 1];
  for (VertexId u = 0; u < n; ++u) g.in_offsets_[u + 1] += g.in_offsets_[u];
  {
    std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
    for (const Edge& e : edges_) {
      EdgeId slot = cursor[e.target]++;
      g.in_sources_[slot] = e.source;
      g.in_probs_[slot] = e.probability;
    }
  }

  edges_.clear();
  num_vertices_ = 0;
  return g;
}

}  // namespace vblock
