#include "cascade/rr_sets.h"

#include "common/check.h"

namespace vblock {

RrSetGenerator::RrSetGenerator(const Graph& g, SamplerKind kind)
    : graph_(g), kind_(kind), visit_epoch_(g.NumVertices(), 0) {
  if (kind_ != SamplerKind::kPerEdgeCoin) grouped_ = &g.GroupedView();
}

void RrSetGenerator::Sample(VertexId target, Rng& rng,
                            std::vector<VertexId>* out) {
  VBLOCK_CHECK_MSG(target < graph_.NumVertices(), "target out of range");
  ++epoch_;
  out->clear();
  visit_epoch_[target] = epoch_;
  out->push_back(target);
  // Reverse BFS: an in-edge (u,v) is live with probability p(u,v),
  // independently per edge, matching Definition 4's distribution.
  for (size_t head = 0; head < out->size(); ++head) {
    VertexId v = (*out)[head];
    if (kind_ != SamplerKind::kPerEdgeCoin) {
      auto on_live = [&](VertexId u, uint32_t) {
        if (visit_epoch_[u] == epoch_) return;
        visit_epoch_[u] = epoch_;
        out->push_back(u);
      };
      grouped_->SampleInEdges(v, rng, on_live);
    } else {
      auto sources = graph_.InNeighbors(v);
      auto probs = graph_.InProbabilities(v);
      for (size_t k = 0; k < sources.size(); ++k) {
        VertexId u = sources[k];
        if (visit_epoch_[u] == epoch_) continue;
        if (!rng.NextBernoulli(probs[k])) continue;
        visit_epoch_[u] = epoch_;
        out->push_back(u);
      }
    }
  }
}

void RrSetGenerator::SampleRandomTarget(Rng& rng, std::vector<VertexId>* out) {
  VBLOCK_CHECK_MSG(graph_.NumVertices() > 0, "empty graph");
  Sample(static_cast<VertexId>(rng.NextBounded(graph_.NumVertices())), rng,
         out);
}

double EstimateSpreadViaRrSets(const Graph& g,
                               const std::vector<VertexId>& seeds,
                               uint32_t num_sets, uint64_t seed,
                               SamplerKind kind) {
  VBLOCK_CHECK_MSG(num_sets > 0, "num_sets must be positive");
  std::vector<uint8_t> is_seed(g.NumVertices(), 0);
  for (VertexId s : seeds) {
    VBLOCK_CHECK_MSG(s < g.NumVertices(), "seed out of range");
    is_seed[s] = 1;
  }
  RrSetGenerator generator(g, kind);
  std::vector<VertexId> rr;
  uint64_t hits = 0;
  for (uint32_t i = 0; i < num_sets; ++i) {
    Rng rng(MixSeed(seed, i));
    generator.SampleRandomTarget(rng, &rr);
    for (VertexId v : rr) {
      if (is_seed[v]) {
        ++hits;
        break;
      }
    }
  }
  return static_cast<double>(g.NumVertices()) * static_cast<double>(hits) /
         static_cast<double>(num_sets);
}

}  // namespace vblock
