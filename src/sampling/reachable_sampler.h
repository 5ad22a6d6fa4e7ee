// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Seed-rooted live-edge graph sampler for the IC model.
//
// Each Sample() call draws one random sampled graph (Definition 4): every
// out-edge of every reached vertex is live independently with its
// probability, and the root-reachable live region is emitted in compact
// local-id form. Blocked vertices are treated as absent (Definition 2).
// Scratch state is reused across calls, with epoch-stamped visitation so
// per-sample cost is proportional to the sample, not to n.
//
// Two drawing strategies (common/sampler_kind.h): kPerEdgeCoin flips one
// Bernoulli coin per edge; kGeometricSkip (default) walks the graph's
// probability-grouped adjacency with geometric jumps. Identical edge
// distribution, different RNG consumption — so the two kinds visit
// different (equally valid) worlds for the same seed.

#pragma once

#include "common/rng.h"
#include "common/sampler_kind.h"
#include "graph/graph.h"
#include "graph/prob_grouped_view.h"
#include "graph/vertex_mask.h"
#include "sampling/sampled_graph.h"

namespace vblock {

/// Reusable IC live-edge sampler rooted at a fixed vertex.
class ReachableSampler {
 public:
  /// `blocked` may be nullptr; it is captured by pointer and may be updated
  /// between samples via set_blocked (the greedy algorithms grow the blocker
  /// set between rounds). The root must never be blocked.
  ReachableSampler(const Graph& g, VertexId root,
                   const VertexMask* blocked = nullptr,
                   SamplerKind kind = SamplerKind::kGeometricSkip);

  /// Swaps the active blocker mask (nullptr = none).
  void set_blocked(const VertexMask* blocked) { blocked_ = blocked; }

  SamplerKind kind() const { return kind_; }

  /// Draws one sample into `out` (previous contents discarded).
  void Sample(Rng& rng, SampledGraph* out);

  /// Heap bytes of the O(n) visitation arrays.
  uint64_t MemoryUsageBytes() const {
    return VectorBytes(local_id_) + VectorBytes(visit_epoch_);
  }

 private:
  const Graph& graph_;
  VertexId root_;
  const VertexMask* blocked_;
  SamplerKind kind_;
  const ProbGroupedView* grouped_ = nullptr;  // set iff kGeometricSkip
  std::vector<uint32_t> local_id_;
  std::vector<uint32_t> visit_epoch_;
  uint32_t epoch_ = 0;
};

}  // namespace vblock
