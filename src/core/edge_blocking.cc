#include "core/edge_blocking.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "core/spread_decrease_engine.h"
#include "core/unified_instance.h"
#include "graph/graph_builder.h"

namespace vblock {

EdgeSplitInstance SplitEdges(const Graph& g) {
  EdgeSplitInstance inst;
  inst.first_aux = g.NumVertices();
  inst.edges = g.CollectEdges();

  GraphBuilder builder;
  const auto total =
      static_cast<VertexId>(g.NumVertices() + inst.edges.size());
  builder.ReserveVertices(total);
  for (size_t i = 0; i < inst.edges.size(); ++i) {
    const Edge& e = inst.edges[i];
    const auto aux = static_cast<VertexId>(inst.first_aux + i);
    builder.AddEdge(e.source, aux, e.probability);
    builder.AddEdge(aux, e.target, 1.0);
  }
  auto built = builder.Build();
  VBLOCK_CHECK(built.ok());
  inst.graph = std::move(built.value());

  inst.weights.assign(total, 0.0);
  for (VertexId v = 0; v < inst.first_aux; ++v) inst.weights[v] = 1.0;
  return inst;
}

namespace {

// Unifies the (possibly multiple) seeds of the split graph into a
// super-seed and remaps the auxiliary weights. Seeds are original vertices,
// so unification never removes an auxiliary.
struct SplitUnified {
  UnifiedInstance unified;
  std::vector<double> weights;        // unified ids; super-seed weight 0
  std::vector<VertexId> aux_unified;  // edge index -> unified aux id
};

SplitUnified UnifySplit(const EdgeSplitInstance& split,
                        const std::vector<VertexId>& seeds) {
  SplitUnified s;
  s.unified = UnifySeeds(split.graph, seeds);
  s.weights.assign(s.unified.graph.NumVertices(), 0.0);
  for (VertexId u = 0; u < s.unified.graph.NumVertices(); ++u) {
    VertexId original = s.unified.to_original[u];
    if (original != kInvalidVertex) {
      s.weights[u] = split.weights[original];
    }
  }
  s.aux_unified.resize(split.edges.size());
  for (size_t i = 0; i < split.edges.size(); ++i) {
    s.aux_unified[i] =
        s.unified.to_unified[split.first_aux + static_cast<VertexId>(i)];
    VBLOCK_DCHECK(s.aux_unified[i] != kInvalidVertex);
  }
  return s;
}

}  // namespace

std::vector<double> ComputeEdgeSpreadDecrease(
    const Graph& g, const std::vector<VertexId>& seeds,
    const SpreadDecreaseOptions& options) {
  EdgeSplitInstance split = SplitEdges(g);
  SplitUnified s = UnifySplit(split, seeds);
  SpreadDecreaseResult result = ComputeSpreadDecreaseWeighted(
      s.unified.graph, s.unified.root, s.weights, options);
  std::vector<double> per_edge(split.edges.size(), 0.0);
  for (size_t i = 0; i < split.edges.size(); ++i) {
    per_edge[i] = result.delta[s.aux_unified[i]];
  }
  return per_edge;
}

Result<std::vector<double>> ComputeEdgeSpreadDecreaseExact(
    const Graph& g, const std::vector<VertexId>& seeds,
    int max_uncertain_edges) {
  EdgeSplitInstance split = SplitEdges(g);
  SplitUnified s = UnifySplit(split, seeds);
  auto result = ComputeSpreadDecreaseExactWeighted(
      s.unified.graph, s.unified.root, s.weights, nullptr,
      max_uncertain_edges);
  if (!result.ok()) return result.status();
  std::vector<double> per_edge(split.edges.size(), 0.0);
  for (size_t i = 0; i < split.edges.size(); ++i) {
    per_edge[i] = result->delta[s.aux_unified[i]];
  }
  return per_edge;
}

EdgeBlockingResult GreedyEdgeBlocking(const Graph& g,
                                      const std::vector<VertexId>& seeds,
                                      const EdgeBlockingOptions& options) {
  Timer timer;
  Deadline deadline(options.time_limit_seconds);
  EdgeBlockingResult result;

  EdgeSplitInstance split = SplitEdges(g);
  SplitUnified s = UnifySplit(split, seeds);
  const uint32_t budget =
      std::min<uint32_t>(options.budget,
                         static_cast<uint32_t>(split.edges.size()));

  SpreadDecreaseOptions sd;
  sd.theta = options.theta;
  sd.seed = options.seed;
  sd.threads = options.threads;
  SpreadDecreaseEngine engine(s.unified.graph, s.unified.root, sd,
                              /*model=*/nullptr, /*blocked=*/nullptr,
                              &s.weights);
  if (budget > 0 && !engine.Build(deadline)) result.stats.timed_out = true;

  for (uint32_t round = 0; round < budget && !result.stats.timed_out;
       ++round) {
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      break;
    }
    // Argmax over auxiliary (edge) vertices only.
    size_t best_edge = split.edges.size();
    double best_delta = -1.0;
    for (size_t i = 0; i < split.edges.size(); ++i) {
      const VertexId aux = s.aux_unified[i];
      if (engine.blocked().Test(aux)) continue;
      if (engine.Delta(aux) > best_delta) {
        best_edge = i;
        best_delta = engine.Delta(aux);
      }
    }
    if (best_edge == split.edges.size()) break;

    result.blocked_edges.push_back(split.edges[best_edge]);
    result.stats.round_best_delta.push_back(best_delta);
    ++result.stats.rounds_completed;
    // Re-score only when another round will read the scores.
    if (round + 1 < budget &&
        !engine.Block(s.aux_unified[best_edge], deadline)) {
      result.stats.timed_out = true;
    }
  }

  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

Graph RemoveEdges(const Graph& g, const std::vector<Edge>& edges) {
  auto removed = [&](const Edge& e) {
    return std::find(edges.begin(), edges.end(), e) != edges.end();
  };
  GraphBuilder builder;
  builder.ReserveVertices(g.NumVertices());
  for (const Edge& e : g.CollectEdges()) {
    if (!removed(e)) builder.AddEdge(e.source, e.target, e.probability);
  }
  auto built = builder.Build();
  VBLOCK_CHECK(built.ok());
  return std::move(built.value());
}

}  // namespace vblock
