#include "core/greedy.h"

#include <algorithm>

#include "common/check.h"
#include "obs/solve_trace.h"

namespace vblock {
namespace {

// The shared body of AdvancedGreedy, GreedyReplace and SolveGreedy: builds
// *engine when it is null (timed into stats.pool_build_seconds; a warm
// engine costs no clock read here), then runs the AG or GR selection loop
// on it.
BlockerSelection RunGreedy(const Graph& g, VertexId root,
                           const GreedyOptions& options, bool replace,
                           const Deadline& deadline,
                           std::unique_ptr<SpreadDecreaseEngine>* engine) {
  VBLOCK_CHECK_MSG(root < g.NumVertices(), "root out of range");
  if (options.budget == 0 || (replace && g.OutDegree(root) == 0)) {
    // Nothing to block (zero budget, or GR on a sink seed, whose answer is
    // empty): skip the θ-sample pool entirely.
    return {};
  }

  double build_seconds = 0;
  if (*engine == nullptr) {
    Timer build_timer;
    SpreadDecreaseOptions sd;
    sd.theta = options.theta;
    sd.seed = options.seed;
    sd.threads = options.threads;
    sd.sample_reuse = options.sample_reuse;
    sd.sampler_kind = options.sampler_kind;
    *engine = std::make_unique<SpreadDecreaseEngine>(g, root, sd,
                                                     options.triggering_model);
    (*engine)->set_trace(options.trace);
    const bool built = (*engine)->Build(deadline);
    build_seconds = build_timer.ElapsedSeconds();
    if (!built) {
      BlockerSelection result;
      result.stats.timed_out = true;
      result.stats.pool_build_seconds = build_seconds;
      result.stats.seconds = build_seconds;
      return result;
    }
  } else {
    (*engine)->set_trace(options.trace);
  }

  BlockerSelection result =
      replace ? GreedyReplaceWithEngine(engine->get(), options.budget,
                                        deadline, options.trace)
              : AdvancedGreedyWithEngine(engine->get(), options.budget,
                                         deadline, options.trace);
  result.stats.pool_build_seconds = build_seconds;
  result.stats.seconds += build_seconds;
  return result;
}

}  // namespace

BlockerSelection AdvancedGreedyWithEngine(SpreadDecreaseEngine* engine,
                                          uint32_t budget,
                                          const Deadline& deadline,
                                          obs::SolveTrace* trace) {
  Timer timer;
  BlockerSelection result;
  for (uint32_t round = 0; round < budget; ++round) {
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      break;
    }
    double best_delta = 0;
    // Per-round leaf timing via Add (no span): budgets can exceed the
    // span-log capacity, and the cells are what the wire report reads.
    const uint64_t pick_begin = trace ? obs::SolveTrace::NowNanos() : 0;
    VertexId best = engine->BestUnblocked(&best_delta);
    if (trace) {
      trace->Add(obs::SolveStage::kSelect,
                 obs::SolveTrace::NowNanos() - pick_begin);
    }
    if (best == kInvalidVertex) break;  // no candidates left

    result.blockers.push_back(best);
    result.stats.selection_trace.push_back(best);
    result.stats.round_best_delta.push_back(best_delta);
    ++result.stats.rounds_completed;

    // Re-score only when another round will read the scores.
    if (round + 1 < budget && !engine->Block(best, deadline)) {
      result.stats.timed_out = true;
      break;
    }
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

BlockerSelection GreedyReplaceWithEngine(SpreadDecreaseEngine* engine,
                                         uint32_t budget,
                                         const Deadline& deadline,
                                         obs::SolveTrace* trace) {
  Timer timer;
  BlockerSelection result;
  const Graph& g = engine->graph();
  const VertexId root = engine->root();

  // Phase 1 (lines 1-10) candidates: out-neighbors of the seed.
  std::vector<VertexId> cb(g.OutNeighbors(root).begin(),
                           g.OutNeighbors(root).end());
  const uint32_t initial_rounds =
      std::min<uint32_t>(budget, static_cast<uint32_t>(cb.size()));

  for (uint32_t round = 0; round < initial_rounds; ++round) {
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      result.stats.seconds = timer.ElapsedSeconds();
      return result;
    }
    size_t best_idx = 0;
    bool have_best = false;
    double best_delta = -1.0;
    const uint64_t pick_begin = trace ? obs::SolveTrace::NowNanos() : 0;
    for (size_t i = 0; i < cb.size(); ++i) {
      // cb may hold duplicates or the root itself when the graph was built
      // with merge_parallel_edges / drop_self_loops disabled; blocking
      // either would violate the engine's preconditions.
      if (cb[i] == root || engine->blocked().Test(cb[i])) continue;
      const double delta = engine->Delta(cb[i]);
      if (!have_best || delta > best_delta ||
          (delta == best_delta && cb[i] < cb[best_idx])) {
        have_best = true;
        best_idx = i;
        best_delta = delta;
      }
    }
    if (trace) {
      trace->Add(obs::SolveStage::kSelect,
                 obs::SolveTrace::NowNanos() - pick_begin);
    }
    if (!have_best) break;
    VertexId x = cb[best_idx];
    // Swap-and-pop: cb's order carries no meaning — ties in Δ break toward
    // the smaller vertex id (matching AdvancedGreedy and phase 2), so the
    // pick is independent of candidate order and removal can be O(1).
    cb[best_idx] = cb.back();
    cb.pop_back();
    result.blockers.push_back(x);
    result.stats.selection_trace.push_back(x);
    result.stats.round_best_delta.push_back(best_delta);
    ++result.stats.rounds_completed;
    if (!engine->Block(x, deadline)) {
      result.stats.timed_out = true;
      result.stats.seconds = timer.ElapsedSeconds();
      return result;
    }
  }

  // Phase 2 (lines 11-20): replacement in reverse insertion order with
  // early termination.
  for (auto it = result.blockers.rbegin(); it != result.blockers.rend();
       ++it) {
    if (deadline.Expired()) {
      result.stats.timed_out = true;
      break;
    }
    VertexId u = *it;
    if (!engine->Unblock(u, deadline)) {
      result.stats.timed_out = true;
      break;
    }

    const uint64_t pick_begin = trace ? obs::SolveTrace::NowNanos() : 0;
    VertexId x = engine->BestUnblocked();
    if (trace) {
      trace->Add(obs::SolveStage::kSelect,
                 obs::SolveTrace::NowNanos() - pick_begin);
    }
    VBLOCK_CHECK_MSG(x != kInvalidVertex, "candidate pool cannot be empty");

    *it = x;
    if (x == u) break;  // the removed blocker is still the best: stop
    result.stats.selection_trace.push_back(x);
    ++result.stats.replacements;
    if (!engine->Block(x, deadline)) {
      result.stats.timed_out = true;
      break;
    }
  }

  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

BlockerSelection AdvancedGreedy(const Graph& g, VertexId root,
                                const GreedyOptions& options) {
  std::unique_ptr<SpreadDecreaseEngine> engine;
  return RunGreedy(g, root, options, /*replace=*/false,
                   Deadline(options.time_limit_seconds), &engine);
}

BlockerSelection GreedyReplace(const Graph& g, VertexId root,
                               const GreedyOptions& options) {
  std::unique_ptr<SpreadDecreaseEngine> engine;
  return RunGreedy(g, root, options, /*replace=*/true,
                   Deadline(options.time_limit_seconds), &engine);
}

SolverResult SolveGreedy(const Graph& g, const std::vector<VertexId>& seeds,
                         const SolverOptions& options,
                         const Deadline& deadline, obs::SolveTrace* trace,
                         WarmEntry* entry) {
  VBLOCK_CHECK_MSG(options.algorithm == Algorithm::kAdvancedGreedy ||
                       options.algorithm == Algorithm::kGreedyReplace,
                   "SolveGreedy runs AG or GR only");
  Timer timer;
  if (entry->inst == nullptr) {
    obs::ScopedSpan span(trace, obs::SolveStage::kUnify);
    entry->inst = std::make_unique<UnifiedInstance>(UnifySeeds(g, seeds));
  }
  const UnifiedInstance& inst = *entry->inst;

  GreedyOptions greedy;
  greedy.budget = options.budget;
  greedy.theta = options.theta;
  greedy.seed = options.seed;
  greedy.threads = options.threads;
  greedy.sample_reuse = options.sample_reuse;
  greedy.sampler_kind = options.sampler_kind;
  greedy.trace = trace;
  BlockerSelection sel =
      RunGreedy(inst.graph, inst.root, greedy,
                options.algorithm == Algorithm::kGreedyReplace, deadline,
                &entry->engine);

  SolverResult result;
  result.blockers = inst.BlockersToOriginal(sel.blockers);
  result.stats = std::move(sel.stats);
  result.stats.selection_trace =
      inst.BlockersToOriginal(result.stats.selection_trace);
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace vblock
