// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Persistent pool of θ live-edge samples for the greedy algorithms.
//
// The paper's Algorithms 3 and 4 call Algorithm 2 once per round, and the
// naive implementation re-draws all θ samples from scratch every time. The
// pool instead draws the samples once and maintains them *incrementally*
// across rounds: an inverted index vertex → {samples containing it} pins
// down exactly which samples a mask change can affect, and only those are
// re-derived. Two reuse policies are supported (see SampleReuse below).
//
// The pool stores only sample regions and their bookkeeping; scoring
// (dominator trees, Δ aggregation) lives in core/spread_decrease_engine.h,
// which orchestrates the update sequence documented in docs/DESIGN.md §5:
//
//   BeginBlock/BeginUnblock  → sorted dirty-sample list, mask updated
//   RemoveFromIndex(i)       ┐ sequential, before the region is overwritten
//   DeriveSample(i, scratch) │ thread-safe for distinct i
//   AddToIndex(i)            ┘ sequential, ascending i — deterministic

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cascade/triggering.h"
#include "common/sampler_kind.h"
#include "graph/graph.h"
#include "graph/vertex_mask.h"
#include "sampling/reachable_sampler.h"
#include "sampling/sample_reuse.h"
#include "sampling/sampled_graph.h"
#include "sampling/triggering_sampler.h"

namespace vblock {

/// Persistent, incrementally maintained collection of θ root-reachable
/// live-edge samples under a growable/shrinkable blocked mask.
class SamplePool {
 public:
  struct Options {
    /// Number of samples θ.
    uint32_t theta = 10000;
    /// Base RNG seed. Sample i's initial draw uses MixSeed(seed, i), so
    /// results do not depend on the thread count. Re-draw r of sample i
    /// (kResample) uses MixSeed(MixSeed(seed, i), r).
    uint64_t seed = 1;
    SampleReuse reuse = SampleReuse::kResample;
    /// Live-edge drawing strategy (common/sampler_kind.h).
    SamplerKind sampler_kind = SamplerKind::kGeometricSkip;
  };

  /// Per-thread scratch for DeriveSample: the sampler owns O(n) epoch-
  /// stamped visitation arrays; the prune buffers grow to the largest
  /// pristine region ever pruned and are then allocation-free.
  struct Scratch {
    std::unique_ptr<ReachableSampler> ic_sampler;
    std::unique_ptr<TriggeringSampler> triggering_sampler;
    // Prune-BFS state over pristine-local ids (kPrune re-derivations).
    std::vector<uint32_t> local_id;     // pristine-local -> new-local
    std::vector<uint32_t> visit_epoch;  // epoch stamp per pristine-local
    std::vector<uint32_t> pristine_of;  // new-local -> pristine-local
    uint32_t epoch = 0;
  };

  /// `model` selects triggering-set sampling when non-null (not owned; must
  /// outlive the pool). `build_blocked` (copied; null = none) is the
  /// build-time mask: the initial draw and every restore run under it, and
  /// its vertices can never be unblocked. The root must stay unblocked for
  /// the pool's lifetime.
  SamplePool(const Graph& g, VertexId root, const Options& options,
             const TriggeringModel* model = nullptr,
             const VertexMask* build_blocked = nullptr);

  uint32_t theta() const { return options_.theta; }
  VertexId root() const { return root_; }
  SampleReuse reuse() const { return options_.reuse; }
  const Graph& graph() const { return graph_; }
  const VertexMask& blocked_mask() const { return blocked_; }
  const VertexMask& build_mask() const { return build_blocked_; }

  /// Current region of sample i (valid between a DeriveSample(i) and the
  /// next one).
  const SampledGraph& sample(uint32_t i) const { return samples_[i]; }

  /// Creates a scratch bound to this pool (and its blocked mask).
  Scratch MakeScratch() const;

  /// (Re-)derives sample i under the current blocked mask. Revision 0 draws
  /// from the base graph; later revisions re-prune (kPrune) or re-draw
  /// (kResample). Thread-safe for distinct i; the caller must have removed
  /// i from the index first and must re-add it afterwards.
  void DeriveSample(uint32_t i, Scratch* scratch);

  /// kPrune: copies the freshly drawn samples into the flat pristine arena
  /// and builds the static vertex→samples CSR over it. Both modes: readies
  /// the dynamic inverted index (empty). Call once, after the initial
  /// DeriveSample sweep and before any AddToIndex/BeginBlock/BeginUnblock.
  void FinalizeBuild();

  /// Publishes / retires sample i in the dynamic inverted index.
  /// Sequential only; O(|region|) via swap-and-pop position bookkeeping.
  void AddToIndex(uint32_t i);
  void RemoveFromIndex(uint32_t i);

  /// Marks v blocked and appends the ids of every sample whose *current*
  /// region contains v to *dirty, sorted ascending. Exactly those samples
  /// must be re-derived (a sample that never reached v cannot change).
  void BeginBlock(VertexId v, std::vector<uint32_t>* dirty);

  /// Clears v from the mask and appends the samples that may regain
  /// vertices: in kPrune the pristine index of v (static superset of every
  /// region that can re-expand through v); in kResample the entire pool
  /// (full refresh — unblocking is rare and only GreedyReplace phase 2
  /// does it).
  void BeginUnblock(VertexId v, std::vector<uint32_t>* dirty);

  /// Resets the blocked mask to the build-time mask and appends exactly
  /// the samples whose content may differ from the freshly built pool
  /// (those touched by a BeginBlock/BeginUnblock since the build — or
  /// since the last restore, so repeated restore cycles of a hot key stay
  /// O(samples the previous run touched), never creeping toward O(θ)),
  /// sorted ascending. After the caller re-derives those samples, the pool
  /// is bit-identical to its freshly built state: kPrune re-prunes the
  /// pristine arena under the build-time mask, and kResample has its
  /// revision counters rewound here so the re-draw replays the original
  /// revision-0 stream MixSeed(seed, i). This is what lets the warm-pool
  /// cache (service/pool_cache.h) return a used engine to circulation
  /// with cold-path bit-exactness.
  void BeginRestore(std::vector<uint32_t>* dirty);

  /// Epoch migration, step 1 of 3 (see core/spread_decrease_engine.h
  /// MigrateGraph for the orchestration). The pool must be at rest — mask
  /// at its build-time state, every sample published, nothing touched
  /// since the last restore — and the bound Graph reference must already
  /// hold the *mutated* edges (the service swaps the graph in place,
  /// address- and n-stable). Appends to *dirty, sorted ascending, every
  /// sample whose draw read a changed row: its region holds a vertex with
  /// a changed out-row or — for a triggering-model pool, whose draw reads
  /// the in-row of every vertex a region vertex has an edge into — an
  /// in-neighbour of a vertex with a changed in-row (the spans come from
  /// ComputeChangedRows in unified id space; a changed root row dirties
  /// all θ). An IC draw reads only region vertices' out-rows, and an edge
  /// change always changes its source's out-row, so IC pools ignore
  /// changed_in. It rewinds those samples' revisions to 0 so the
  /// re-derive replays the cold stream MixSeed(seed, i) — in *both* reuse
  /// modes: a kPrune re-derive must be a fresh draw from the mutated
  /// graph, not a prune of the stale pristine arena. Samples left clean
  /// visited only unchanged rows, so their stored worlds are already
  /// bit-identical to what a cold build on the mutated graph would draw.
  void BeginMigrate(std::span<const VertexId> changed_out,
                    std::span<const VertexId> changed_in,
                    std::vector<uint32_t>* dirty);

  /// Epoch migration, step 3: after the dirty samples have been
  /// re-derived and re-published, re-flattens the current regions into the
  /// pristine arena and rebuilds its CSR index (kPrune; no-op for
  /// kResample). Unlike FinalizeBuild this leaves the populated dynamic
  /// inverted index alone.
  void FinishMigrate();

  /// Total vertices (with multiplicity) across current sample regions —
  /// the arena high-water mark; used by benchmarks/diagnostics.
  uint64_t TotalRegionVertices() const;

  /// Heap bytes held by the pool: sample regions, both masks, the dynamic
  /// inverted index, and (kPrune) the pristine arena + its CSR index. Counts vector
  /// capacities, so the figure is stable once the pool reaches steady
  /// state. Used by the warm-pool cache's byte budget.
  uint64_t MemoryUsageBytes() const;

 private:
  void DrawFresh(uint32_t i, Scratch* scratch);
  void PruneFromPristine(uint32_t i, Scratch* scratch);
  void BuildPristineArena();

  const Graph& graph_;
  VertexId root_;
  Options options_;
  const TriggeringModel* model_;
  VertexMask build_blocked_;  // the build-time mask; restores return to it
  VertexMask blocked_;

  // Current regions + per-sample re-draw revision (kResample seeding).
  std::vector<SampledGraph> samples_;
  std::vector<uint32_t> revision_;
  // Samples touched by BeginBlock/BeginUnblock since the build (or the
  // last BeginRestore) — exactly the set a restore must re-derive.
  std::vector<uint8_t> touched_;

  // Dynamic inverted index over the *current* regions. index_[v] holds
  // {sample, slot} entries (slot = local id of v in that sample);
  // index_pos_[sample][slot] is the entry's position in index_[v], kept
  // O(1)-updatable under swap-and-pop removal.
  struct IndexEntry {
    uint32_t sample;
    uint32_t slot;
  };
  std::vector<std::vector<IndexEntry>> index_;
  std::vector<std::vector<uint32_t>> index_pos_;

  // Pristine arena (kPrune): the initial θ draws flattened into three
  // contiguous buffers, plus per-sample begin cursors (sample i's offsets
  // live at arena_offsets_[ext_off_[i] .. ext_off_[i+1])) and a CSR
  // inverted index over pristine membership (sample ids ascending).
  std::vector<uint32_t> arena_offsets_;
  std::vector<VertexId> arena_targets_;
  std::vector<VertexId> arena_parents_;
  std::vector<uint64_t> ext_off_, ext_tgt_, ext_par_;
  std::vector<uint64_t> pristine_begin_;
  std::vector<uint32_t> pristine_index_;
};

}  // namespace vblock
