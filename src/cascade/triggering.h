// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Triggering-model framework (paper §V-E "Extension: IMIN Problem under
// Triggering Model").
//
// The triggering model generalizes both IC and LT: each vertex v draws a
// triggering set T(v) ⊆ N_in(v) from a distribution; a live-edge sample
// keeps the incoming edge (u,v) iff u ∈ T(v). The paper's AdvancedGreedy /
// GreedyReplace run unchanged on such samples.

#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/vertex_mask.h"

namespace vblock {

class ProbGroupedView;

/// Distribution over triggering sets. Implementations must be stateless and
/// thread-compatible: all randomness comes from the caller's Rng.
class TriggeringModel {
 public:
  virtual ~TriggeringModel() = default;

  /// Samples T(v): appends to `out` the *indices* into g.InNeighbors(v) of
  /// the chosen in-neighbors. `out` arrives empty.
  virtual void SampleTriggerSet(const Graph& g, VertexId v, Rng& rng,
                                std::vector<uint32_t>* out) const = 0;

  /// True iff SampleTriggerSetGrouped actually exploits the grouped
  /// adjacency. Samplers consult this before building the O(m) grouped
  /// view, so models on the fallback (e.g. LT) never pay for it.
  virtual bool HasGroupedFastPath() const { return false; }

  /// Geometric-skip fast path over the probability-grouped in-adjacency
  /// (graph/prob_grouped_view.h): same distribution over T(v), different
  /// RNG consumption, and indices may be appended in grouped rather than
  /// ascending order (T(v) is a set; consumers only test membership).
  /// The default ignores `grouped` and defers to SampleTriggerSet — models
  /// whose draw is not per-edge Bernoulli (e.g. LT's single roulette spin)
  /// gain nothing from grouping.
  virtual void SampleTriggerSetGrouped(const Graph& g,
                                       const ProbGroupedView& grouped,
                                       VertexId v, Rng& rng,
                                       std::vector<uint32_t>* out) const;

  /// Human-readable name (diagnostics).
  virtual const char* name() const = 0;
};

/// IC as a triggering model: each in-neighbor u enters T(v) independently
/// with probability p(u,v). Sampling with this model is distributionally
/// identical to per-edge coins.
class IcTriggeringModel : public TriggeringModel {
 public:
  void SampleTriggerSet(const Graph& g, VertexId v, Rng& rng,
                        std::vector<uint32_t>* out) const override;
  bool HasGroupedFastPath() const override { return true; }
  /// Skip-samples v's grouped in-edges — under weighted cascade every
  /// in-edge of v shares p = 1/din(v), so this is a single geometric run.
  void SampleTriggerSetGrouped(const Graph& g, const ProbGroupedView& grouped,
                               VertexId v, Rng& rng,
                               std::vector<uint32_t>* out) const override;
  const char* name() const override { return "IC"; }
};

/// Linear-threshold as a triggering model: T(v) holds at most one
/// in-neighbor, chosen with probability equal to the edge weight
/// (none with probability 1 - Σ weights). Requires Σ_u w(u,v) ≤ 1 + ε for
/// every v — the weighted-cascade assignment satisfies this with equality.
/// Construction aborts via CHECK if some vertex's weights exceed 1 by more
/// than 1e-9 (normalize first).
class LtTriggeringModel : public TriggeringModel {
 public:
  /// Validates the weight sums of `g` (CHECK failure on violation).
  explicit LtTriggeringModel(const Graph& g);

  void SampleTriggerSet(const Graph& g, VertexId v, Rng& rng,
                        std::vector<uint32_t>* out) const override;
  const char* name() const override { return "LT"; }
};

/// One triggering-model simulation run: live edges are determined lazily
/// (T(v) drawn when v is first examined), active set grows from the seeds.
/// Returns the number of active vertices, seeds included.
VertexId RunTriggeringCascade(const Graph& g, const TriggeringModel& model,
                              const std::vector<VertexId>& seeds, Rng& rng,
                              const VertexMask* blocked = nullptr);

/// Monte-Carlo spread estimate under a triggering model (rounds averaged,
/// round i seeded with MixSeed(seed, i)).
double EstimateTriggeringSpread(const Graph& g, const TriggeringModel& model,
                                const std::vector<VertexId>& seeds,
                                uint32_t rounds, uint64_t seed,
                                const VertexMask* blocked = nullptr);

}  // namespace vblock
