#include "sampling/reachable_sampler.h"

#include "common/check.h"

namespace vblock {

ReachableSampler::ReachableSampler(const Graph& g, VertexId root,
                                   const VertexMask* blocked, SamplerKind kind)
    : graph_(g),
      root_(root),
      blocked_(blocked),
      kind_(kind),
      local_id_(g.NumVertices(), 0),
      visit_epoch_(g.NumVertices(), 0) {
  VBLOCK_CHECK_MSG(root < g.NumVertices(), "root out of range");
  if (kind_ != SamplerKind::kPerEdgeCoin) grouped_ = &g.GroupedView();
}

void ReachableSampler::Sample(Rng& rng, SampledGraph* out) {
  VBLOCK_DCHECK(!(blocked_ && blocked_->Test(root_)));
  ++epoch_;
  out->Clear();

  auto visit = [&](VertexId v) -> VertexId {
    visit_epoch_[v] = epoch_;
    auto local = static_cast<VertexId>(out->to_parent.size());
    local_id_[v] = local;
    out->to_parent.push_back(v);
    return local;
  };
  visit(root_);

  // A live edge to a vertex v already known to be unblocked.
  auto take = [&](VertexId v) {
    VertexId local_v = visit_epoch_[v] == epoch_ ? local_id_[v] : visit(v);
    out->targets.push_back(local_v);
  };

  // BFS pops vertices in local-id order and appends each vertex's live
  // out-edges consecutively, so `targets` is already grouped by source and
  // the CSR offsets can be emitted on the fly. Blocked vertices are absent
  // (Definition 2); the per-edge kind tests the mask before the coin so
  // blocked targets consume no randomness (historical RNG consumption).
  for (VertexId local_u = 0; local_u < out->to_parent.size(); ++local_u) {
    VertexId u = out->to_parent[local_u];
    if (kind_ != SamplerKind::kPerEdgeCoin) {
      auto on_live = [&](VertexId v, uint32_t) {
        if (blocked_ && blocked_->Test(v)) return;
        take(v);
      };
      grouped_->SampleOutEdges(u, rng, on_live);
    } else {
      auto targets = graph_.OutNeighbors(u);
      auto probs = graph_.OutProbabilities(u);
      for (size_t k = 0; k < targets.size(); ++k) {
        VertexId v = targets[k];
        if (blocked_ && blocked_->Test(v)) continue;
        if (!rng.NextBernoulli(probs[k])) continue;
        take(v);
      }
    }
    out->offsets.push_back(static_cast<uint32_t>(out->targets.size()));
  }
}

}  // namespace vblock
