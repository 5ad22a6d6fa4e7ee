#include "core/spread_decrease_engine.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/solve_trace.h"

namespace vblock {

void SampleScorer::Score(const SampledGraph& sample,
                         std::span<const uint8_t> weight,
                         std::vector<VertexId>* sizes) {
  std::span<const uint8_t> local;
  if (!weight.empty()) {
    local_weight.clear();
    for (VertexId parent : sample.to_parent) {
      local_weight.push_back(weight[parent]);
    }
    local = local_weight;
  }
  if (sample.NumVertices() > 1) {
    workspace.ComputeDominatorTreeInto(sample.View(), 0, &tree);
    workspace.ComputeSubtreeSizesInto(tree, sizes, local);
  } else {
    sizes->assign(1, local.empty() ? 1 : local[0]);
  }
}

SpreadDecreaseEngine::SpreadDecreaseEngine(
    const Graph& g, VertexId root, const SpreadDecreaseOptions& options,
    const TriggeringModel* model, const VertexMask* blocked,
    const std::vector<double>* vertex_weight)
    : graph_(g),
      root_(root),
      pool_(g, root,
            SamplePool::Options{options.theta, options.seed,
                                options.sample_reuse, options.sampler_kind},
            model, blocked) {
  if (vertex_weight) weight_ = CheckZeroOneWeights(g, *vertex_weight);
  num_threads_ = std::max<uint32_t>(
      1, std::min({options.threads, options.theta, ExecutorWidth()}));
  workers_.push_back(Worker{pool_.MakeScratch(), {}});
}

void SpreadDecreaseEngine::Contribute(uint32_t i, double sign) {
  const auto& to_parent = pool_.sample(i).to_parent;
  const auto& sizes = sizes_[i];
  spread_raw_ += sign * static_cast<double>(sizes[0]);
  for (uint32_t k = 1; k < to_parent.size(); ++k) {
    delta_raw_[to_parent[k]] += sign * static_cast<double>(sizes[k]);
  }
}

bool SpreadDecreaseEngine::RecomputeDirty(const Deadline& deadline,
                                          bool initial) {
  // Stage attribution: the retire/publish bookkeeping passes accumulate
  // under kScore; each re-derived sample's draw and dominator-tree time
  // land in kSampleDraw/kDomTree from whichever participant ran it. Leaf
  // stages overlap any enclosing span (e.g. kPoolBuild) and sum across
  // participants, so per-stage totals are attributions, not a partition
  // of wall time, and can exceed the enclosing span's wall clock.
  obs::SolveTrace* const trace = trace_;

  // Retire pass (sequential): subtract the dirty samples' cached
  // contributions and unpublish them from the inverted index while their
  // old regions are still stored.
  if (!initial) {
    const uint64_t t0 = trace ? obs::SolveTrace::NowNanos() : 0;
    for (uint32_t i : dirty_) {
      Contribute(i, -1.0);
      pool_.RemoveFromIndex(i);
    }
    if (trace) {
      trace->Add(obs::SolveStage::kScore, obs::SolveTrace::NowNanos() - t0);
    }
  }

  // Re-derive + re-score pass (parallel on the process executor, in
  // dynamic chunks; each slot owns one Worker): each dirty sample is
  // rebuilt under the current mask and its dominator subtree sizes
  // recomputed into its cache slot. Per-sample deadline checks let huge
  // θ-loops abort.
  const auto count = static_cast<uint32_t>(dirty_.size());
  const uint32_t slots = std::min(num_threads_, count);
  while (workers_.size() < slots) {
    workers_.push_back(Worker{pool_.MakeScratch(), {}});
  }
  std::atomic<bool> expired{false};
  ParallelFor(count, slots, [&](uint32_t t, uint32_t begin, uint32_t end) {
    Worker& w = workers_[t];
    for (uint32_t d = begin; d < end; ++d) {
      if (expired.load(std::memory_order_relaxed)) return;
      if (deadline.Expired()) {
        expired.store(true, std::memory_order_relaxed);
        return;
      }
      const uint32_t i = dirty_[d];
      // Leaf timing runs on every participant — relaxed atomic adds into
      // the stage cells, two clock reads per sample, only when a trace is
      // attached.
      const uint64_t draw_begin = trace ? obs::SolveTrace::NowNanos() : 0;
      // The pool saved the built region in its undo slot: save the built
      // sizes beside it, so Restore can put both back.
      if (pool_.DeriveSample(i, &w.scratch)) {
        saved_sizes_[i].swap(sizes_[i]);
      }
      const uint64_t draw_end = trace ? obs::SolveTrace::NowNanos() : 0;
      w.scorer.Score(pool_.sample(i), weight_, &sizes_[i]);
      if (trace) {
        trace->Add(obs::SolveStage::kSampleDraw, draw_end - draw_begin);
        trace->Add(obs::SolveStage::kDomTree,
                   obs::SolveTrace::NowNanos() - draw_end);
      }
    }
  });
  if (expired.load()) {
    timed_out_ = true;
    return false;
  }

  if (initial) pool_.FinalizeBuild();

  // Publish pass (sequential, ascending sample id — deterministic for any
  // thread count): add the new contributions and index entries.
  const uint64_t publish_begin = trace ? obs::SolveTrace::NowNanos() : 0;
  for (uint32_t i : dirty_) {
    Contribute(i, 1.0);
    pool_.AddToIndex(i);
  }
  if (trace) {
    trace->Add(obs::SolveStage::kScore,
               obs::SolveTrace::NowNanos() - publish_begin);
  }
  return true;
}

bool SpreadDecreaseEngine::Build(const Deadline& deadline) {
  VBLOCK_CHECK_MSG(!built_, "Build() must be called exactly once");
  obs::ScopedSpan span(trace_, obs::SolveStage::kPoolBuild);
  delta_raw_.assign(graph_.NumVertices(), 0.0);
  spread_raw_ = 0;
  sizes_.resize(pool_.theta());
  saved_sizes_.resize(pool_.theta());
  dirty_.resize(pool_.theta());
  std::iota(dirty_.begin(), dirty_.end(), 0u);
  if (!RecomputeDirty(deadline, /*initial=*/true)) return false;
  built_ = true;
  return true;
}

bool SpreadDecreaseEngine::Block(VertexId v, const Deadline& deadline) {
  VBLOCK_CHECK_MSG(built_ && !timed_out_, "engine not in a scorable state");
  VBLOCK_CHECK_MSG(v != root_ && !pool_.blocked_mask().Test(v),
                   "vertex is the root or already blocked");
  obs::ScopedSpan span(trace_, obs::SolveStage::kBlock);
  dirty_.clear();
  pool_.BeginBlock(v, &dirty_);
  return RecomputeDirty(deadline, /*initial=*/false);
}

bool SpreadDecreaseEngine::Unblock(VertexId v, const Deadline& deadline) {
  VBLOCK_CHECK_MSG(built_ && !timed_out_, "engine not in a scorable state");
  VBLOCK_CHECK_MSG(pool_.blocked_mask().Test(v), "vertex is not blocked");
  VBLOCK_CHECK_MSG(!pool_.build_mask().Test(v),
                   "vertex is blocked by the build-time mask");
  obs::ScopedSpan span(trace_, obs::SolveStage::kUnblock);
  dirty_.clear();
  pool_.BeginUnblock(v, &dirty_);
  return RecomputeDirty(deadline, /*initial=*/false);
}

void SpreadDecreaseEngine::Restore() {
  VBLOCK_CHECK_MSG(built_ && !timed_out_, "engine not in a restorable state");
  obs::ScopedSpan span(trace_, obs::SolveStage::kRestore);
  dirty_.clear();
  pool_.BeginRestore(&dirty_);
  if (dirty_.empty()) return;  // nothing touched since the build
  // Put the touched samples' built regions and sizes back (freeing the
  // displaced ones), then republish all θ into cleared Δ sums and index,
  // as Build does. The sums are exact integers, so this reproduces the
  // built state bit for bit.
  for (uint32_t i : dirty_) {
    pool_.PutBackSample(i);
    sizes_[i] = std::exchange(saved_sizes_[i], {});
  }
  pool_.ClearIndex();
  std::fill(delta_raw_.begin(), delta_raw_.end(), 0.0);
  spread_raw_ = 0;
  for (uint32_t i = 0; i < pool_.theta(); ++i) {
    Contribute(i, 1.0);
    pool_.AddToIndex(i);
  }
}

uint32_t SpreadDecreaseEngine::MigrateGraph(
    std::span<const VertexId> changed_out,
    std::span<const VertexId> changed_in) {
  VBLOCK_CHECK_MSG(built_ && !timed_out_, "engine not in a migratable state");
  obs::ScopedSpan span(trace_, obs::SolveStage::kMigrate);
  // The samplers captured a pointer to the old graph content's grouped
  // view at construction — rebuild every live worker's scratch against
  // the swapped-in graph before any re-derivation. (Workers grown later
  // get fresh scratches anyway.)
  for (Worker& w : workers_) w.scratch = pool_.MakeScratch();
  dirty_.clear();
  pool_.BeginMigrate(changed_out, changed_in, &dirty_);
  const auto migrated = static_cast<uint32_t>(dirty_.size());
  if (migrated > 0) {
    const bool ok = RecomputeDirty(Deadline(), /*initial=*/false);
    VBLOCK_CHECK_MSG(ok, "deadline-free migration cannot expire");
    pool_.FinishMigrate();
  }
  return migrated;
}

uint64_t SpreadDecreaseEngine::MemoryUsageBytes() const {
  uint64_t bytes = pool_.MemoryUsageBytes();
  for (const auto& s : sizes_) {
    bytes += static_cast<uint64_t>(s.capacity()) * sizeof(VertexId);
  }
  for (const auto& s : saved_sizes_) bytes += VectorBytes(s);
  bytes += static_cast<uint64_t>(sizes_.capacity()) *
           sizeof(std::vector<VertexId>);
  bytes += VectorBytes(saved_sizes_);
  bytes += static_cast<uint64_t>(weight_.capacity()) * sizeof(uint8_t);
  bytes += static_cast<uint64_t>(delta_raw_.capacity()) * sizeof(double);
  bytes += static_cast<uint64_t>(dirty_.capacity()) * sizeof(uint32_t);
  bytes += VectorBytes(workers_);
  for (const Worker& w : workers_) {
    bytes += w.scratch.MemoryUsageBytes() + w.scorer.MemoryUsageBytes();
  }
  return bytes;
}

VertexId SpreadDecreaseEngine::BestUnblocked(double* best_delta) const {
  const VertexMask& blocked = pool_.blocked_mask();
  VertexId best = kInvalidVertex;
  double best_raw = -1.0;
  for (VertexId u = 0; u < graph_.NumVertices(); ++u) {
    if (u == root_ || blocked.Test(u)) continue;
    if (delta_raw_[u] > best_raw) {
      best = u;
      best_raw = delta_raw_[u];
    }
  }
  if (best_delta) {
    *best_delta =
        best == kInvalidVertex ? -1.0
                               : best_raw / static_cast<double>(pool_.theta());
  }
  return best;
}

SpreadDecreaseResult SpreadDecreaseEngine::Scores() const {
  SpreadDecreaseResult result;
  const double inv_theta = 1.0 / static_cast<double>(pool_.theta());
  result.delta.resize(delta_raw_.size());
  for (size_t v = 0; v < delta_raw_.size(); ++v) {
    result.delta[v] = delta_raw_[v] * inv_theta;
  }
  result.expected_spread = spread_raw_ * inv_theta;
  return result;
}

}  // namespace vblock
