#include "core/unified_instance.h"

#include "common/check.h"
#include "graph/graph_builder.h"

namespace vblock {

std::vector<VertexId> UnifiedInstance::BlockersToOriginal(
    const std::vector<VertexId>& unified_blockers) const {
  std::vector<VertexId> out;
  out.reserve(unified_blockers.size());
  for (VertexId b : unified_blockers) {
    VBLOCK_CHECK_MSG(b != root, "the super-seed cannot be a blocker");
    out.push_back(to_original[b]);
  }
  return out;
}

UnifiedInstance UnifySeeds(const Graph& g, const std::vector<VertexId>& seeds) {
  VBLOCK_CHECK_MSG(!seeds.empty(), "seed set must not be empty");
  const VertexId n = g.NumVertices();

  std::vector<uint8_t> is_seed(n, 0);
  VertexId distinct_seeds = 0;
  for (VertexId s : seeds) {
    VBLOCK_CHECK_MSG(s < n, "seed id out of range");
    if (!is_seed[s]) {
      is_seed[s] = 1;
      ++distinct_seeds;
    }
  }

  UnifiedInstance inst;
  inst.num_seeds = distinct_seeds;
  inst.to_unified.assign(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    if (!is_seed[v]) {
      inst.to_unified[v] = static_cast<VertexId>(inst.to_original.size());
      inst.to_original.push_back(v);
    }
  }
  inst.root = static_cast<VertexId>(inst.to_original.size());
  inst.to_original.push_back(kInvalidVertex);

  GraphBuilder builder;
  builder.ReserveVertices(inst.root + 1);

  // Non-seed -> non-seed edges survive unchanged. Edges into seeds are
  // dropped: seeds are permanently active, so such edges never matter.
  for (VertexId u = 0; u < n; ++u) {
    if (is_seed[u]) continue;
    auto targets = g.OutNeighbors(u);
    auto probs = g.OutProbabilities(u);
    for (size_t k = 0; k < targets.size(); ++k) {
      VertexId v = targets[k];
      if (is_seed[v]) continue;
      builder.AddEdge(inst.to_unified[u], inst.to_unified[v], probs[k]);
    }
  }

  // Seed out-edges collapse into super-seed edges with the noisy-or
  // probability 1 − Π(1−pi) per target.
  std::vector<double> fail(n, 1.0);   // Π(1−pi) per touched target
  std::vector<uint8_t> is_touched(n, 0);
  std::vector<VertexId> touched;
  for (VertexId s = 0; s < n; ++s) {
    if (!is_seed[s]) continue;
    auto targets = g.OutNeighbors(s);
    auto probs = g.OutProbabilities(s);
    for (size_t k = 0; k < targets.size(); ++k) {
      VertexId v = targets[k];
      if (is_seed[v]) continue;  // seed->seed is irrelevant
      if (!is_touched[v]) {
        is_touched[v] = 1;
        touched.push_back(v);
      }
      fail[v] *= 1.0 - probs[k];
    }
  }
  for (VertexId v : touched) {
    // fail[v] == 1.0 can still happen here if every seed edge to v had
    // p == 0; the resulting 0-probability edge is harmless.
    builder.AddEdge(inst.root, inst.to_unified[v], 1.0 - fail[v]);
  }

  auto built = builder.Build();
  VBLOCK_CHECK(built.ok());
  inst.graph = std::move(built.value());
  return inst;
}

}  // namespace vblock
