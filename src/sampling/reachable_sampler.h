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

#include <span>

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

  /// Grows `region` — a sample drawn while `v` was blocked — by `v`, now
  /// unblocked, into `out` (previous contents discarded; must not alias
  /// `region`). `live_sources` lists, ascending and non-empty, the local
  /// ids of `region` whose edge into `v` is live. `out` keeps `region`'s
  /// vertices, local ids and live edges, gives `v` the next local id with
  /// the listed in-edges, then continues the BFS from `v`: the out-edges
  /// of `v` and of every vertex it reaches are drawn from `rng` exactly as
  /// Sample draws them. (An unblocked vertex outside `region` has only
  /// dead edges from it, so nothing else changes.)
  void Extend(const SampledGraph& region, VertexId v,
              std::span<const uint32_t> live_sources, Rng& rng,
              SampledGraph* out);

  /// Heap bytes of the O(n) visitation arrays.
  uint64_t MemoryUsageBytes() const {
    return VectorBytes(local_id_) + VectorBytes(visit_epoch_);
  }

 private:
  // Appends v to `out` as its next local id and stamps it visited.
  VertexId Visit(VertexId v, SampledGraph* out);
  // The BFS of Sample from the first vertex of `out` without a CSR row:
  // draws each such vertex's live out-edges and appends its row.
  void DrawRows(Rng& rng, SampledGraph* out);

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
