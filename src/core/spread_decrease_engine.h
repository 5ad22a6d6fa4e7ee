// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Algorithm 2's θ-loop as a stateful scoring engine over a persistent
// SamplePool.
//
// Build() draws θ samples, builds one dominator tree per sample and sums
// the subtree sizes — the whole of Algorithm 2. The one-shot estimators
// (core/spread_decrease.h) are a Build() + Scores() on a temporary
// engine; the greedy algorithms keep the engine alive across rounds: it
// keeps the samples, the per-sample dominator subtree sizes, and the
// aggregate Δ. Block(v) touches only the samples whose region actually
// contains v: their cached contributions are retired, the regions pruned
// under the new mask, re-scored, and re-added (Unblock re-prunes or
// re-draws per SampleReuse). Every number involved is an integer stored in
// a double (vertex weights are 0/1), so incremental subtract/add is exact
// and results are bit-identical for any thread count.
//
// Scoring state after Build()/Block()/Unblock() is always consistent:
// Delta(v) equals what a from-scratch pass over the pool's current samples
// would produce (tests/sample_pool_test.cc cross-checks this).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/timer.h"
#include "core/spread_decrease.h"
#include "domtree/dominator_tree.h"
#include "sampling/sample_pool.h"

namespace vblock::obs {
class SolveTrace;
}  // namespace vblock::obs

namespace vblock {

/// Algorithm 2's per-sample step: one dominator tree plus one subtree-size
/// pass over `sample`. sizes[k] is the (weighted) number of sample
/// vertices lost when local vertex k is blocked (Theorem 6), and sizes[0]
/// — the root's subtree, i.e. the whole region — the sample's (weighted)
/// size. `weight` holds 0/1 weights by parent id (empty = all ones). The
/// buffers are reused, so steady state performs no heap allocations.
struct SampleScorer {
  DominatorWorkspace workspace;
  DominatorTree tree;
  std::vector<uint8_t> local_weight;

  void Score(const SampledGraph& sample, std::span<const uint8_t> weight,
             std::vector<VertexId>* sizes);

  /// Heap bytes of the reused buffers.
  uint64_t MemoryUsageBytes() const {
    return workspace.MemoryUsageBytes() + VectorBytes(tree.idom) +
           VectorBytes(tree.order) + VectorBytes(local_weight);
  }
};

/// Incremental Δ estimator consumed by AdvancedGreedy / GreedyReplace,
/// GreedyEdgeBlocking and the one-shot Compute* estimators.
/// Lifecycle: construct → Build() → interleave Block()/Unblock() with
/// Delta()/BestUnblocked() queries → Restore(). Build/Block/Unblock return
/// false (and latch timed_out()) when the deadline expires mid-update; the
/// engine must not be used further after that.
class SpreadDecreaseEngine {
 public:
  /// `model` switches sampling to the triggering model (§V-E); not owned.
  /// `blocked` (copied; null = none) is the build-time mask: Build() and
  /// Restore() run under it, and its vertices can never be unblocked.
  /// `vertex_weight` (null = all ones) must be 0/1 per vertex
  /// (CHECK-enforced; see CheckZeroOneWeights): Δ and the spread then
  /// count weight-1 vertices only.
  SpreadDecreaseEngine(const Graph& g, VertexId root,
                       const SpreadDecreaseOptions& options,
                       const TriggeringModel* model = nullptr,
                       const VertexMask* blocked = nullptr,
                       const std::vector<double>* vertex_weight = nullptr);

  /// Draws the θ-sample pool and scores it (the one big θ-loop; checks the
  /// deadline per sample).
  bool Build(const Deadline& deadline = Deadline());

  /// Marks v blocked and incrementally re-scores the affected samples.
  bool Block(VertexId v, const Deadline& deadline = Deadline());

  /// Removes v from the blocked mask (GreedyReplace phase 2) and
  /// re-derives every sample that may regain vertices through v. v must
  /// not be in the build-time mask.
  bool Unblock(VertexId v, const Deadline& deadline = Deadline());

  /// Returns the engine to its freshly-Build() state: resets the blocked
  /// mask to the build-time mask and, for exactly the samples touched since
  /// the last restore (SamplePool::BeginRestore), puts the region and
  /// subtree sizes saved at their first re-derive back from the undo log.
  /// It draws nothing, builds no dominator tree and checks no deadline, so
  /// it cannot fail; it then clears the Δ sums and the inverted index and
  /// republishes all θ samples, as Build does (O(Σ region sizes)). The
  /// restored bytes are the built ones, so a restored
  /// engine answers queries identically to a brand-new one
  /// (tests/service_test.cc and tests/sample_pool_test.cc assert this).
  /// The displaced regions are freed, so an engine at rest holds one copy
  /// of each region. This is the warm-pool cache's checkin path and the
  /// batch GR groups' between-member reset. Must not be called on a
  /// timed-out engine.
  void Restore();

  /// Epoch migration: carries a restored (at-rest) engine across an
  /// in-place graph mutation. The caller must already have swapped the
  /// referenced Graph's content (same address, same vertex count, same
  /// root — the engine and pool hold references, so the swap is invisible
  /// until this call) and installed/invalidated its grouped view. The
  /// changed-row spans come from ComputeChangedRows in this engine's
  /// (unified) id space — or are the sorted union of the diffs of several
  /// consecutive updates (WarmEntry::pending_out/pending_in): a sample
  /// that read no row of the union already equals a cold draw on the
  /// newest graph. Every worker's sampler scratch is rebuilt first —
  /// samplers capture a pointer to the *old* grouped view at construction
  /// — then the samples whose draws read a changed row (a region vertex's
  /// out-row; under a triggering model also the in-row of each vertex a
  /// region vertex has an edge into) are re-drawn on their cold revision-0
  /// streams and re-scored (SamplePool::BeginMigrate), leaving the engine
  /// bit-identical to one
  /// cold-built on the mutated graph. Runs deadline-free (the work is
  /// O(affected samples), the same order as one greedy round). Returns
  /// the number of re-derived samples.
  uint32_t MigrateGraph(std::span<const VertexId> changed_out,
                        std::span<const VertexId> changed_in);

  /// Current Δ estimate for v (normalized by θ), reflecting the current
  /// blocked mask.
  double Delta(VertexId v) const {
    return delta_raw_[v] / static_cast<double>(pool_.theta());
  }

  /// Argmax of Δ over unblocked non-root vertices; ties break toward the
  /// smaller vertex id. Returns kInvalidVertex when no candidate is left.
  /// `best_delta` (optional) receives the winner's normalized Δ.
  VertexId BestUnblocked(double* best_delta = nullptr) const;

  /// Estimate of the current expected spread E({root}, G[V\B]) — the mean
  /// (weighted) sample-region size (Lemma 1).
  double ExpectedSpread() const {
    return spread_raw_ / static_cast<double>(pool_.theta());
  }

  const VertexMask& blocked() const { return pool_.blocked_mask(); }
  uint32_t theta() const { return pool_.theta(); }
  bool timed_out() const { return timed_out_; }

  /// The (unified) graph and root the engine scores — lets engine-injected
  /// algorithm variants (core/batch_solver.h) avoid carrying them separately.
  const Graph& graph() const { return graph_; }
  VertexId root() const { return root_; }

  /// Materializes the full score vector in ComputeSpreadDecrease's output
  /// form (allocates; the one-shot estimators' result, not for the hot
  /// loop).
  SpreadDecreaseResult Scores() const;

  /// Read access to the pool's current samples (tests cross-check the
  /// incremental aggregate against from-scratch scoring of these).
  const SampledGraph& PoolSample(uint32_t i) const { return pool_.sample(i); }

  /// Heap bytes held by the engine: the pool (with both masks and its undo
  /// slots), the per-sample subtree size caches and their undo slots, the
  /// vertex weights, the score vector
  /// and every per-slot worker's scratch — its sampler's O(n) visitation
  /// arrays, prune buffers and dominator workspace. TrimScratch drops the
  /// workers to one fresh set before an engine is cached, so a parked
  /// engine still holds one O(n) scratch set. Feeds the warm-pool cache's
  /// byte budget (service/pool_cache.h).
  uint64_t MemoryUsageBytes() const;

  /// Drops the per-slot scratch (sampler arrays, dominator workspaces)
  /// down to one fresh set; the rest re-materializes on the next parallel
  /// update. The warm-pool cache parks engines through this, so N cached
  /// entries never pin N × (threads − 1) idle scratch sets, and a parked
  /// engine's account never depends on which slot happened to run which
  /// sample (the cache's evictions stay deterministic). Results are
  /// unaffected (thread-count invariance).
  void TrimScratch() {
    workers_.clear();
    workers_.push_back(Worker{pool_.MakeScratch(), {}});
  }

  /// Attaches (or detaches, with nullptr) a per-solve trace sink. Not
  /// owned; the caller must clear it before the engine outlives the trace
  /// (the warm-pool cache path does so before Release). Tracing changes
  /// no result bits — off is a branch-on-null per instrumented scope.
  void set_trace(obs::SolveTrace* trace) { trace_ = trace; }

 private:
  // Per-slot state: pool scratch plus the dominator-pass buffers.
  struct Worker {
    SamplePool::Scratch scratch;
    SampleScorer scorer;
  };

  // Re-derives and re-scores dirty_ (sorted sample ids). `initial` skips
  // the retire pass (nothing is cached yet) and finalizes the pool's
  // indexes.
  bool RecomputeDirty(const Deadline& deadline, bool initial);

  // Adds (sign +1) or subtracts (sign −1) sample i's cached sizes_ in the
  // Δ and spread sums. Sequential; exact, as every summand is an integer.
  void Contribute(uint32_t i, double sign);

  const Graph& graph_;
  VertexId root_;
  SamplePool pool_;
  // Most ParallelFor slots per θ-loop: `threads`, clamped to θ and to
  // the executor's width.
  uint32_t num_threads_ = 1;
  std::vector<Worker> workers_;  // one per slot; grown lazily, trimmed to 1

  // 0/1 vertex weights by vertex id; empty = all ones.
  std::vector<uint8_t> weight_;

  // sizes_[i][slot] — (weighted) dominator subtree size of sample i's
  // local vertex `slot` at the sample's current revision; slot 0 is the
  // region size. The cached contribution that lets Block() subtract a
  // sample's old scores without recomputing them.
  std::vector<std::vector<VertexId>> sizes_;
  // Undo log beside the pool's: saved_sizes_[i] holds sample i's built
  // sizes_ from its first re-derive after a restore until the next
  // Restore; empty otherwise.
  std::vector<std::vector<VertexId>> saved_sizes_;

  // Σ over samples of subtree sizes / region sizes (unnormalized; exact —
  // all summands are integers).
  std::vector<double> delta_raw_;
  double spread_raw_ = 0;

  std::vector<uint32_t> dirty_;
  bool built_ = false;
  bool timed_out_ = false;
  obs::SolveTrace* trace_ = nullptr;  // per-solve sink; null = tracing off
};

}  // namespace vblock
