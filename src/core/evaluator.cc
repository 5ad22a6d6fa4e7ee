#include "core/evaluator.h"

#include "cascade/exact_spread.h"
#include "cascade/monte_carlo.h"
#include "common/check.h"
#include "graph/vertex_mask.h"

namespace vblock {

double EvaluateSpread(const Graph& g, const std::vector<VertexId>& seeds,
                      const std::vector<VertexId>& blockers,
                      const EvaluationOptions& options) {
  for (VertexId s : seeds) {
    VBLOCK_CHECK_MSG(s < g.NumVertices(), "seed is not a vertex of the graph");
  }
  for (VertexId b : blockers) {
    VBLOCK_CHECK_MSG(b < g.NumVertices(),
                     "blocker is not a vertex of the graph");
  }
  VertexMask blocked = VertexMask::FromVertices(g.NumVertices(), blockers);
  if (options.prefer_exact) {
    ExactSpreadOptions exact;
    exact.max_uncertain_edges = options.max_uncertain_edges;
    auto result = ComputeExactSpread(g, seeds, &blocked, exact);
    if (result.ok()) return result.value();
    // Only "too many uncertain edges" falls through to Monte-Carlo.
    VBLOCK_CHECK_MSG(
        result.status().code() == StatusCode::kResourceExhausted,
        result.status().ToString().c_str());
  }
  MonteCarloOptions mc;
  mc.rounds = options.mc_rounds;
  mc.seed = options.seed;
  mc.threads = options.threads;
  mc.sampler_kind = options.sampler_kind;
  return EstimateSpread(g, seeds, mc, &blocked);
}

}  // namespace vblock
