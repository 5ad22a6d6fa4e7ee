// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Probability-grouped adjacency for geometric-skip live-edge sampling.
//
// Every stochastic traversal in the pipeline bottoms out in "flip one coin
// per out-edge (or in-edge) of every visited vertex". On the paper's
// propagation models the edge probabilities take very few distinct values —
// trivalency has three, weighted cascade one per distinct in-degree, and a
// vertex's in-edges under WC all share p = 1/din(v) — so a one-time
// analysis pays for itself: group each vertex's adjacency into runs of
// identical probability, precompute 1/log1p(-p) per class, and sample each
// run by geometric jumps (⌊log U / log(1-p)⌋ edges per RNG call) instead
// of per-edge coins. Expected per-vertex cost drops from O(degree) to
// O(#classes + #successes); p = 1 runs are taken wholesale and p = 0 runs
// are skipped for free, with zero RNG consumption.
//
// The view is immutable, self-contained (it copies what it needs out of
// the Graph), and cached lazily on the Graph itself (Graph::GroupedView),
// so samplers, sample pools, and batch groups all share one instance.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "graph/graph.h"
#include "sampling/batched_draw.h"

namespace vblock {

/// Immutable grouped-CSR mirror of a Graph's out- and in-adjacency.
class ProbGroupedView {
 public:
  /// One distinct edge-probability value.
  struct ProbClass {
    double probability = 0.0;
    /// 1/log1p(-p) (negative) for p in (0,1); 0 for the degenerate classes
    /// (p <= 0 never fires, p >= 1 always fires — neither draws randomness).
    double inv_log1m = 0.0;
  };

  /// How the kernels draw one run's live edges, baked at build time by
  /// ChooseRunStrategy so the hot loop only switches on it.
  enum class RunStrategy : uint8_t {
    kCoins = 0,  // one Bernoulli coin per edge
    kJump = 1,   // scalar geometric jumps, one NextGeometric per draw
    kBlock = 2,  // block fills of `block` skips via FillGeometricSkips
  };

  /// A maximal run of consecutive same-class edges of one vertex in the
  /// grouped order. `block` is the run's DrawBlockFor size when the
  /// strategy is kBlock, 0 otherwise. Still 12 bytes.
  struct Run {
    uint32_t class_id = 0;
    uint32_t length = 0;
    RunStrategy strategy = RunStrategy::kCoins;
    uint16_t block = 0;

    friend bool operator==(const Run&, const Run&) = default;
  };

  /// Builds the grouped view: one pass to intern the distinct probability
  /// values (class ids in order of first appearance in the out-CSR, then
  /// the in-CSR), one stable per-vertex sort to group each adjacency list
  /// by ascending class id. O(m log dmax) time, ~2x the adjacency in extra
  /// memory (see docs/DESIGN.md §7).
  explicit ProbGroupedView(const Graph& g);

  /// Delta-patches `old_view` (built for the pre-delta graph) into a view
  /// of `new_graph`: vertices listed in `changed_out` / `changed_in`
  /// (sorted ascending — the output of ComputeChangedRows) are regrouped
  /// from scratch, every other vertex's runs, grouped arrays, and kernel
  /// flags are copied verbatim from the old view. The patched view is
  /// bit-identical to `ProbGroupedView(new_graph)` — same class table,
  /// same runs, same flags — so samplers walking unchanged vertices
  /// consume RNG exactly as a cold build would.
  ///
  /// Returns nullptr when the class table is unstable — the fresh
  /// first-appearance interning order is not an extension of the old one
  /// (a probability value vanished, or a new value surfaced before an old
  /// one's first appearance). Stability is the patch's correctness
  /// precondition (copied runs store old class ids), so an unstable delta
  /// means the caller must build fresh instead.
  static std::unique_ptr<ProbGroupedView> DeltaPatched(
      const ProbGroupedView& old_view, const Graph& new_graph,
      std::span<const VertexId> changed_out,
      std::span<const VertexId> changed_in);

  uint32_t NumClasses() const { return static_cast<uint32_t>(classes_.size()); }
  const ProbClass& ClassAt(uint32_t c) const { return classes_[c]; }

  // -- Grouped out-adjacency -------------------------------------------------

  /// Targets of u's out-edges in grouped order (a permutation of
  /// g.OutNeighbors(u)).
  std::span<const VertexId> GroupedOutNeighbors(VertexId u) const {
    return Neighbors(out_, u);
  }
  /// Runs covering u's grouped out-edges; lengths sum to OutDegree(u).
  std::span<const Run> OutRuns(VertexId u) const { return Runs(out_, u); }
  /// Original within-vertex position (index into g.OutNeighbors(u)) of u's
  /// k-th grouped out-edge — the permutation back to the original order.
  uint32_t OutOriginalPos(VertexId u, uint32_t k) const {
    return OriginalPos(out_, u, k);
  }
  /// Original global EdgeId (g.OutEdgeId) of u's k-th grouped out-edge.
  EdgeId OutOriginalEdgeId(VertexId u, uint32_t k) const {
    return out_.offsets[u] + OutOriginalPos(u, k);
  }
  /// Probability of u's k-th grouped out-edge (identical, bit-for-bit, to
  /// the original edge's probability).
  double OutProbability(VertexId u, uint32_t k) const {
    return Probability(out_, u, k);
  }

  // -- Grouped in-adjacency --------------------------------------------------

  /// Sources of v's in-edges in grouped order (a permutation of
  /// g.InNeighbors(v)).
  std::span<const VertexId> GroupedInNeighbors(VertexId v) const {
    return Neighbors(in_, v);
  }
  std::span<const Run> InRuns(VertexId v) const { return Runs(in_, v); }
  /// Original within-vertex position (index into g.InNeighbors(v)).
  uint32_t InOriginalPos(VertexId v, uint32_t k) const {
    return OriginalPos(in_, v, k);
  }
  double InProbability(VertexId v, uint32_t k) const {
    return Probability(in_, v, k);
  }

  // -- Skip-sampling kernels -------------------------------------------------

  /// Draws an independent Bernoulli(p) coin for every out-edge of u and
  /// calls fn(target, original_pos) for each success, in grouped order.
  /// Each run takes the strategy the cost model below baked for it —
  /// block fills of geometric skips (sampling/batched_draw.h), scalar
  /// geometric jumps, or per-edge coins — and vertices whose grouping
  /// cannot pay at all take one plain coin scan. The distribution is
  /// identical in every case; only RNG consumption differs.
  template <typename Fn>
  void SampleOutEdges(VertexId u, Rng& rng, Fn&& fn) const {
    SampleDir(out_, u, rng, fn);
  }

  /// In-edge twin of SampleOutEdges: fn(source, original_pos) per success.
  /// This is the side that makes RR-sets and triggering-set draws cheap —
  /// under WC all of v's in-edges share one class.
  template <typename Fn>
  void SampleInEdges(VertexId v, Rng& rng, Fn&& fn) const {
    SampleDir(in_, v, rng, fn);
  }

  // -- Sampling cost model ---------------------------------------------------
  //
  // Geometric jumps are not free: one draw costs a log(), several times a
  // plain coin. The kernels therefore pick, per run and per vertex, the
  // cheapest strategy under a small cost model (units: one Bernoulli coin),
  // decided at build time so the hot loop only pays a switch. The
  // decisions are deterministic properties of the graph, so reproducibility
  // is untouched. The constants are *measured*, not guessed — see
  // docs/DESIGN.md §10 for the measurement protocol and bench_skip_sampling
  // for the per-direction timings. Reference machine numbers: coin 2.1 ns,
  // scalar NextGeometric 8.7 ns, block draw 3.5 ns amortized at block 64.

  /// Cost of one scalar NextGeometric draw (one libm log) in coin units.
  /// Measured: 8.7 ns / 2.0 ns ≈ 4.4, rounded to 4.5.
  static constexpr double kGeometricDrawCostScalar = 4.5;
  /// Amortized cost of one block draw — raw generation plus its share of
  /// the 4-wide log/multiply/floor transform — at block sizes >= 8.
  /// Measured with the AVX2 transform: 3.5 ns ≈ 1.7 coins, rounded up to
  /// 2.0 to cover partial-block fills. The scalar fallback is slower
  /// (~3.9 coins: the divide in BatchLog is serial), but it MUST use the
  /// same constant: these decisions steer RNG consumption, and the
  /// fallback promises bit-identical worlds to the AVX2 path, so the model
  /// is deliberately ISA-independent.
  static constexpr double kGeometricDrawCostBatched = 2.0;
  /// Per-FillGeometricSkips overhead (indirect dispatch, buffer setup).
  static constexpr double kBlockFillOverheadCost = 2.0;
  /// Per-run bookkeeping cost of the run walk (run + class loads, branches).
  static constexpr double kRunOverheadCost = 1.5;
  /// Cost of an edge whose probability is 0 or 1 (no RNG, branch only).
  static constexpr double kDegenerateEdgeCost = 0.3;

  /// FillGeometricSkips block size for a kBlock run: the expected draw
  /// count 1 + length·p rounded up to a multiple of 4 (full SIMD lanes),
  /// clamped to kMaxDrawBlock — so one fill usually finishes the run and
  /// the discarded tail stays small. Pure function of (p, length): the
  /// block size steers RNG consumption, so it must be a deterministic
  /// build-time property, never tuned at runtime.
  static constexpr uint32_t DrawBlockFor(double p, uint32_t length) {
    const double expected = 1.0 + static_cast<double>(length) * p;
    if (expected >= static_cast<double>(kMaxDrawBlock)) return kMaxDrawBlock;
    return (static_cast<uint32_t>(expected) + 4u) & ~3u;
  }

  /// Minimum expected draws 1 + length·p for a run to block-fill at all.
  /// The throughput constants above model a *full pipeline* of fills; a
  /// run that expects only a couple of draws puts the fill's transform
  /// latency (~15 ns: NextBlock + the 4-wide log/multiply/floor) squarely
  /// on the walk's critical path, where the amortized 2.0-coin figure is a
  /// fiction. Measured: block-filling WC-RR in-runs, which expect
  /// 1 + din·(1/din) = 2 draws regardless of degree, ran at 0.70× the
  /// scalar jump walk. Runs under this bar jump or coin instead.
  static constexpr double kMinExpectedDrawsBatched = 8.0;

  /// Modeled cost, in coins, of drawing a run of `length` edges of
  /// probability `p` in (0,1) with strategy `s`. A jump walk expects
  /// 1 + length·p draws (successes plus the final overshoot); a block walk
  /// transforms whole blocks (draws past the run's end are discarded), so
  /// it pays blocks · (block·draw + fill overhead).
  static constexpr double RunCost(double p, uint32_t length, RunStrategy s) {
    const double expected = 1.0 + static_cast<double>(length) * p;
    switch (s) {
      case RunStrategy::kJump:
        return expected * kGeometricDrawCostScalar;
      case RunStrategy::kBlock: {
        const double block = static_cast<double>(DrawBlockFor(p, length));
        const double fills = expected <= block ? 1.0 : expected / block;
        return fills *
               (block * kGeometricDrawCostBatched + kBlockFillOverheadCost);
      }
      case RunStrategy::kCoins:
        break;
    }
    return static_cast<double>(length);
  }

  /// The per-run strategy: block fills when they beat coins and the run
  /// clears the expected-draws gate, else scalar jumps when they beat
  /// coins, else coins. Degenerate runs (p <= 0 or p >= 1) draw no
  /// randomness and report kCoins.
  static constexpr RunStrategy ChooseRunStrategy(double p, uint32_t length) {
    if (!(p > 0.0 && p < 1.0)) return RunStrategy::kCoins;
    const double coins = static_cast<double>(length);
    if (1.0 + coins * p >= kMinExpectedDrawsBatched &&
        RunCost(p, length, RunStrategy::kBlock) < coins) {
      return RunStrategy::kBlock;
    }
    if (RunCost(p, length, RunStrategy::kJump) < coins) {
      return RunStrategy::kJump;
    }
    return RunStrategy::kCoins;
  }

  /// True iff the kernel walks u's out-edge (resp. v's in-edge) runs;
  /// false means the grouping cannot beat a plain coin scan there (e.g. WC
  /// out-edges toward targets of mostly-distinct in-degrees) and the kernel
  /// samples the grouped arrays edge by edge at exactly the per-edge
  /// kind's cost. Exposed for tests and diagnostics.
  bool OutUsesRunWalk(VertexId u) const { return out_.use_runs[u] != 0; }
  bool InUsesRunWalk(VertexId v) const { return in_.use_runs[v] != 0; }

  /// Heap bytes held by the grouped arrays (capacity-based) — roughly 2×
  /// the source CSR. Feeds the service layer's byte accounting.
  uint64_t MemoryUsageBytes() const {
    auto dir_bytes = [](const Dir& d) {
      return static_cast<uint64_t>(d.offsets.capacity()) * sizeof(EdgeId) +
             static_cast<uint64_t>(d.run_offsets.capacity()) *
                 sizeof(uint32_t) +
             static_cast<uint64_t>(d.runs.capacity()) * sizeof(Run) +
             static_cast<uint64_t>(d.neighbors.capacity()) *
                 sizeof(VertexId) +
             static_cast<uint64_t>(d.orig_pos.capacity()) *
                 sizeof(uint32_t) +
             static_cast<uint64_t>(d.probs.capacity()) * sizeof(double) +
             static_cast<uint64_t>(d.use_runs.capacity());
    };
    return dir_bytes(out_) + dir_bytes(in_) +
           static_cast<uint64_t>(classes_.capacity()) * sizeof(ProbClass);
  }

 private:
  struct Dir {
    std::vector<EdgeId> offsets;        // n+1 (same values as the Graph's)
    std::vector<uint32_t> run_offsets;  // n+1, into runs
    std::vector<Run> runs;
    std::vector<VertexId> neighbors;    // size m, grouped order
    std::vector<uint32_t> orig_pos;     // size m, grouped -> original pos
    std::vector<double> probs;          // size m, grouped order
    std::vector<uint8_t> use_runs;      // n: some run beats a plain scan
  };

  std::span<const VertexId> Neighbors(const Dir& d, VertexId v) const {
    VBLOCK_DCHECK(v + 1 < d.offsets.size());
    return {d.neighbors.data() + d.offsets[v],
            d.neighbors.data() + d.offsets[v + 1]};
  }
  std::span<const Run> Runs(const Dir& d, VertexId v) const {
    VBLOCK_DCHECK(v + 1 < d.run_offsets.size());
    return {d.runs.data() + d.run_offsets[v],
            d.runs.data() + d.run_offsets[v + 1]};
  }
  uint32_t OriginalPos(const Dir& d, VertexId v, uint32_t k) const {
    VBLOCK_DCHECK(d.offsets[v] + k < d.offsets[v + 1]);
    return d.orig_pos[d.offsets[v] + k];
  }
  double Probability(const Dir& d, VertexId v, uint32_t k) const {
    // Walk the runs to the one covering k (tests/diagnostics only; the
    // sampling kernels never call this).
    uint32_t covered = 0;
    for (const Run& run : Runs(d, v)) {
      covered += run.length;
      if (k < covered) return classes_[run.class_id].probability;
    }
    VBLOCK_CHECK_MSG(false, "grouped position out of range");
    return 0.0;
  }

  template <typename Fn>
  void SampleDir(const Dir& d, VertexId v, Rng& rng, Fn&& fn) const {
    if (!d.use_runs[v]) {
      // Degenerate grouping: a plain coin scan is optimal, and reading the
      // grouped probs array makes it exactly as cheap as the per-edge kind.
      for (EdgeId e = d.offsets[v]; e < d.offsets[v + 1]; ++e) {
        if (rng.NextBernoulli(d.probs[e])) fn(d.neighbors[e], d.orig_pos[e]);
      }
      return;
    }
    EdgeId slot = d.offsets[v];
    for (uint32_t r = d.run_offsets[v]; r < d.run_offsets[v + 1]; ++r) {
      const Run run = d.runs[r];
      const ProbClass& cls = classes_[run.class_id];
      if (cls.probability >= 1.0) {
        for (uint32_t k = 0; k < run.length; ++k) {
          fn(d.neighbors[slot + k], d.orig_pos[slot + k]);
        }
      } else if (cls.probability > 0.0) {
        if (run.strategy == RunStrategy::kBlock) {
          // Pull `run.block` skips per fill, emit the live edges they land
          // on, refill if the run is not exhausted. Skips left in the block
          // past the run's end are *discarded* — each fill consumes exactly
          // run.block raw outputs, so total consumption is a pure function
          // of the drawn values.
          uint64_t skips[kMaxDrawBlock];
          uint64_t pos = 0;
          uint64_t gap = 0;  // 0 before the first draw, 1 after
          for (bool done = false; !done;) {
            FillGeometricSkips(rng, cls.inv_log1m, run.block, skips);
            for (uint32_t j = 0; j < run.block; ++j) {
              pos += gap + skips[j];
              gap = 1;
              if (pos >= run.length) {
                done = true;
                break;
              }
              fn(d.neighbors[slot + pos], d.orig_pos[slot + pos]);
            }
          }
        } else if (run.strategy == RunStrategy::kJump) {
          for (uint64_t pos = rng.NextGeometric(cls.inv_log1m);
               pos < run.length;
               pos += 1 + rng.NextGeometric(cls.inv_log1m)) {
            fn(d.neighbors[slot + pos], d.orig_pos[slot + pos]);
          }
        } else {
          for (uint32_t k = 0; k < run.length; ++k) {
            if (rng.NextBernoulli(cls.probability)) {
              fn(d.neighbors[slot + k], d.orig_pos[slot + k]);
            }
          }
        }
      }
      slot += run.length;
    }
  }

  // Empty shell for DeltaPatched to fill.
  ProbGroupedView() = default;

  // Per-vertex grouping scratch (class counts, epoch stamps); defined in
  // the .cc, shared by the cold build and the delta patch.
  struct GroupScratch;

  void BuildDir(const Graph& g, bool out, Dir* d);

  // Groups one vertex's adjacency into runs and writes the grouped slices
  // at d->offsets[v]; appends runs and sets offsets[v+1], run_offsets[v+1],
  // and the per-vertex kernel flags. The one shared implementation of the
  // grouping + cost-model decisions, so a patched vertex is bit-identical
  // to a cold-built one.
  void GroupVertex(VertexId v, std::span<const VertexId> neighbors,
                   std::span<const double> probs,
                   std::unordered_map<uint64_t, uint32_t>* interned,
                   GroupScratch* scratch, Dir* d);

  std::vector<ProbClass> classes_;
  Dir out_;
  Dir in_;
};

}  // namespace vblock
