// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Persistent pool of θ live-edge samples for the greedy algorithms.
//
// The paper's Algorithms 3 and 4 call Algorithm 2 once per round, and the
// naive implementation re-draws all θ samples from scratch every time. The
// pool instead draws the samples once and maintains them *incrementally*
// across rounds: an inverted index vertex → {samples containing it} pins
// down exactly which samples a mask change can affect, and only those are
// re-derived. A Block prunes each affected sample's stored world; the two
// reuse policies differ only at Unblock (sampling/sample_reuse.h).
//
// The pool stores only sample regions and their bookkeeping; scoring
// (dominator trees, Δ aggregation) lives in core/spread_decrease_engine.h,
// which orchestrates the update sequence documented in docs/DESIGN.md §5:
//
//   BeginBlock/BeginUnblock  → sorted dirty-sample list, mask updated
//   RemoveFromIndex(i)       ┐ sequential, before the region is overwritten
//   DeriveSample(i, scratch) │ thread-safe for distinct i
//   AddToIndex(i)            ┘ sequential, ascending i — deterministic
//
// Restoring is an undo log, not a re-derive: the first DeriveSample of a
// touched sample moves its region into an undo slot, and PutBackSample
// moves it back after BeginRestore (DESIGN §5).

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cascade/triggering.h"
#include "common/rng.h"
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
    /// results do not depend on the thread count. Under kResample the k-th
    /// Unblock since the build or the last restore flips sample i's coins
    /// (and an IC extension's draws) from MixSeed(MixSeed(seed, i), k);
    /// a triggering-model pool instead re-draws sample i from
    /// MixSeed(MixSeed(seed, i), r), r counting its draws before.
    uint64_t seed = 1;
    SampleReuse reuse = SampleReuse::kResample;
    /// Live-edge drawing strategy (common/sampler_kind.h).
    SamplerKind sampler_kind = SamplerKind::kGeometricSkip;
  };

  /// Per-thread scratch for DeriveSample: the sampler owns O(n) epoch-
  /// stamped visitation arrays; the prune buffers grow to the largest
  /// world ever pruned and are then allocation-free.
  struct Scratch {
    std::unique_ptr<ReachableSampler> ic_sampler;
    std::unique_ptr<TriggeringSampler> triggering_sampler;
    // Prune-BFS state over the pruned world's local ids.
    std::vector<uint32_t> local_id;     // world-local -> new-local
    std::vector<uint32_t> visit_epoch;  // epoch stamp per world-local
    std::vector<uint32_t> world_of;     // new-local -> world-local
    uint32_t epoch = 0;
    // A kResample Block's source: the sample's current region, swapped
    // out of its slot so the prune can write the slot. Holds the last
    // such region's buffers between calls.
    SampledGraph current;

    /// Heap bytes held: the prune buffers above, the swapped-out region
    /// and the sampler (object and arrays).
    uint64_t MemoryUsageBytes() const;
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

  /// (Re-)derives sample i under the current blocked mask, for the last
  /// Begin* call. Revision 0 (build, migrate, a re-deriving kResample
  /// restore) draws from the base graph. After a BeginBlock both modes
  /// prune a stored world: kPrune its pristine world, kResample its
  /// current region. After a BeginUnblock(v) kPrune re-prunes the
  /// pristine world; kResample *extends* an IC sample's current region —
  /// it keeps the region, adds v with the in-edges whose coins
  /// BeginUnblock flipped live, and continues the BFS from v on the same
  /// stream — and re-draws a triggering-model sample as a new world. Only
  /// draws advance the sample's revision. Thread-safe for distinct i; the
  /// caller must have removed i from the index first and must re-add it
  /// afterwards. The first call for a sample touched since the last
  /// restore moves its region into the sample's undo slot and derives
  /// into fresh buffers; it returns true exactly then, so a caller caching
  /// per-sample state can save it too.
  bool DeriveSample(uint32_t i, Scratch* scratch);

  /// kPrune: builds the static vertex→samples CSR over the freshly drawn
  /// regions. Both modes: readies the dynamic inverted index (empty). Call
  /// once, after the initial DeriveSample sweep and before any
  /// AddToIndex/BeginBlock/BeginUnblock.
  void FinalizeBuild();

  /// Publishes / retires sample i in the dynamic inverted index.
  /// Sequential only; O(|region|) via swap-and-pop position bookkeeping.
  void AddToIndex(uint32_t i);
  void RemoveFromIndex(uint32_t i);
  /// Retires every sample from the dynamic inverted index at once (the
  /// lists keep their capacity); AddToIndex republishes them.
  void ClearIndex();

  /// Marks v blocked and appends the ids of every sample whose *current*
  /// region contains v to *dirty, sorted ascending. Exactly those samples
  /// must be re-derived (a sample that never reached v cannot change).
  void BeginBlock(VertexId v, std::vector<uint32_t>* dirty);

  /// Clears v from the mask and appends, sorted ascending, the samples
  /// to re-derive:
  ///  * kPrune: the pristine index of v (static superset of every region
  ///    that can re-expand through v).
  ///  * kResample, IC: exactly the samples v joins. The candidates are
  ///    the samples whose region holds an in-neighbour of v (every sample
  ///    when the root is one). For each, in ascending sample id, it flips
  ///    fresh Bernoulli(p) coins for the edges from the region into v, in
  ///    ascending local-id order, on the stream of this Unblock (see
  ///    Options::seed). A candidate with a live coin is listed, and
  ///    DeriveSample extends it; the others keep their region, which is
  ///    already a draw under the new mask. Exact because a region depends
  ///    only on its edges into unblocked vertices and IC edges are
  ///    independent: given the region, the edges into v and out of
  ///    unreached vertices are still unexamined (docs/DESIGN.md §5).
  ///  * kResample, triggering model: the entire pool, each sample re-drawn
  ///    as a new world (a vertex's in-edges are not independent there).
  void BeginUnblock(VertexId v, std::vector<uint32_t>* dirty);

  /// Resets the blocked mask to the build-time mask and appends exactly
  /// the samples whose content may differ from the freshly built pool
  /// (those touched by a BeginBlock/BeginUnblock since the build — or
  /// since the last restore, so repeated restore cycles of a hot key stay
  /// O(samples the previous run touched), never creeping toward O(θ)),
  /// sorted ascending, and rewinds their kResample revisions to 0. Each
  /// listed sample then goes back to its built bytes by either of two
  /// steps, while it is out of the index:
  ///  * PutBackSample(i) moves the undo slot's region back — no draw. This
  ///    is what SpreadDecreaseEngine::Restore does, before it clears the
  ///    index and republishes all θ samples.
  ///  * DeriveSample(i) re-derives it: kPrune re-prunes the undo slot's
  ///    region under the build-time mask, kResample replays the revision-0
  ///    stream MixSeed(seed, i). The undo slot is kept (it still holds
  ///    the built region) until the next BeginMigrate.
  /// Either way the pool is bit-identical to its freshly built state, and
  /// the Unblock count that keys the kResample coin streams starts over,
  /// as in a fresh pool. That lets the warm-pool cache
  /// (service/pool_cache.h) return a used engine to circulation with
  /// cold-path bit-exactness.
  void BeginRestore(std::vector<uint32_t>* dirty);

  /// Restore step for a sample listed by BeginRestore: moves its saved
  /// region back from the undo slot, frees the displaced region and sets
  /// its revision to the post-build value. Sequential; i's old entries must
  /// leave the index (RemoveFromIndex, or a ClearIndex before any re-add)
  /// and the caller must re-add it afterwards.
  void PutBackSample(uint32_t i);

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
  /// graph, not a prune of a region drawn from the old one. Samples left
  /// clean visited only unchanged rows, so their stored worlds are already
  /// bit-identical to what a cold build on the mutated graph would draw.
  /// Drops every undo slot a re-derive restore left behind: those regions
  /// belong to the old graph.
  void BeginMigrate(std::span<const VertexId> changed_out,
                    std::span<const VertexId> changed_in,
                    std::vector<uint32_t>* dirty);

  /// Epoch migration, step 3: after the dirty samples have been
  /// re-derived and re-published, rebuilds the pristine CSR index from the
  /// current regions (kPrune; no-op for kResample). Unlike FinalizeBuild
  /// this leaves the populated dynamic inverted index alone.
  void FinishMigrate();

  /// Total vertices (with multiplicity) across current sample regions;
  /// used by benchmarks/diagnostics.
  uint64_t TotalRegionVertices() const;

  /// Heap bytes held by the pool: sample regions, the undo slots (and the
  /// regions they hold mid-request), both masks, the dynamic inverted
  /// index, and (kPrune) the pristine CSR index. Counts vector capacities,
  /// so the figure is stable once the pool reaches steady state. Used by
  /// the warm-pool cache's byte budget.
  uint64_t MemoryUsageBytes() const;

 private:
  void DrawFresh(uint32_t i, Scratch* scratch);
  // IC kResample BeginUnblock: flips each candidate's coins into v and
  // lists the samples with a live one.
  void FlipUnblockCoins(VertexId v, std::vector<uint32_t>* dirty);
  // Grows `region` by the unblocked vertex into *out, from sample i's
  // coins flipped by FlipUnblockCoins.
  void Extend(uint32_t i, const SampledGraph& region, SampledGraph* out,
              Scratch* scratch);
  // BFS over `world`'s stored live edges under the current mask, into *out.
  void Prune(const SampledGraph& world, SampledGraph* out, Scratch* scratch);
  void BuildPristineIndex();

  const Graph& graph_;
  VertexId root_;
  Options options_;
  const TriggeringModel* model_;
  VertexMask build_blocked_;  // the build-time mask; restores return to it
  VertexMask blocked_;

  // Current regions + per-sample count of draws (re-draw seeding).
  std::vector<SampledGraph> samples_;
  std::vector<uint32_t> revision_;
  // Set by BeginUnblock, cleared by BeginBlock: the pending DeriveSample
  // calls serve an Unblock, which under kResample extends the IC regions
  // and re-draws the triggering-model ones.
  bool unblocking_ = false;
  // IC kResample Unblock state. unblocks_ counts the Unblocks since the
  // build or the last restore and keys the coin streams. extensions_
  // holds, per dirty sample (ascending), its coin stream after the coins
  // into unblocked_ and where its live sources start in live_sources_ —
  // the local ids whose edge into unblocked_ came up live.
  struct Extension {
    uint32_t sample;
    uint32_t live_begin;
    Rng rng;
  };
  VertexId unblocked_ = kInvalidVertex;
  uint32_t unblocks_ = 0;
  std::vector<Extension> extensions_;
  std::vector<uint32_t> live_sources_;
  // Samples touched by BeginBlock/BeginUnblock since the build (or the
  // last BeginRestore) — exactly the set a restore must put back.
  std::vector<uint8_t> touched_;
  // Undo log: undo_[i] holds sample i's built region from its first
  // derive after a restore until the next restore puts it back; empty
  // otherwise (a region always holds the root). Under kPrune it is the
  // pristine region every re-prune of sample i reads.
  std::vector<SampledGraph> undo_;

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

  // Pristine CSR index (kPrune): vertex v's built-region membership is
  // pristine_index_[pristine_begin_[v] .. pristine_begin_[v+1]), sample
  // ids ascending. BeginUnblock reads it as its dirty set.
  std::vector<uint64_t> pristine_begin_;
  std::vector<uint32_t> pristine_index_;
};

}  // namespace vblock
