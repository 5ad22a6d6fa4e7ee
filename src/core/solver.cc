#include "core/solver.h"

#include <algorithm>

#include "common/check.h"
#include "common/timer.h"
#include "core/baseline_greedy.h"
#include "core/betweenness.h"
#include "core/greedy.h"
#include "core/heuristics.h"
#include "core/unified_instance.h"

namespace vblock {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRandom:
      return "RA";
    case Algorithm::kOutDegree:
      return "OD";
    case Algorithm::kPageRank:
      return "PR";
    case Algorithm::kBetweenness:
      return "BC";
    case Algorithm::kBaselineGreedy:
      return "BG";
    case Algorithm::kAdvancedGreedy:
      return "AG";
    case Algorithm::kGreedyReplace:
      return "GR";
  }
  return "?";
}

Status ValidateIminQuery(const Graph& g, const std::vector<VertexId>& seeds,
                         uint32_t budget) {
  if (seeds.empty()) {
    return Status::InvalidArgument("seed set must not be empty");
  }
  for (VertexId s : seeds) {
    if (s >= g.NumVertices()) {
      return Status::OutOfRange("seed id " + std::to_string(s) +
                                " out of range (graph has " +
                                std::to_string(g.NumVertices()) + " vertices)");
    }
  }
  // Duplicate detection on a sorted copy: O(|S| log |S|) regardless of the
  // graph size — validation runs once per query in a batch, so an O(n)
  // seen-array would dominate large-graph batches.
  std::vector<VertexId> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  auto dup = std::adjacent_find(sorted.begin(), sorted.end());
  if (dup != sorted.end()) {
    return Status::InvalidArgument("duplicate seed id " +
                                   std::to_string(*dup));
  }
  const VertexId non_seeds =
      g.NumVertices() - static_cast<VertexId>(seeds.size());
  if (budget > non_seeds) {
    return Status::InvalidArgument(
        "budget " + std::to_string(budget) + " exceeds the " +
        std::to_string(non_seeds) + " blockable (non-seed) vertices");
  }
  return Status::OK();
}

Result<SolverResult> SolveImin(const Graph& g,
                               const std::vector<VertexId>& seeds,
                               const SolverOptions& options) {
  Status valid = ValidateIminQuery(g, seeds, options.budget);
  if (!valid.ok()) return valid;

  SolverResult result;
  Timer timer;
  if (options.trace) result.trace = std::make_shared<obs::SolveTrace>();
  obs::SolveTrace* const trace = result.trace.get();

  switch (options.algorithm) {
    case Algorithm::kRandom: {
      obs::ScopedSpan span(trace, obs::SolveStage::kSelect);
      result.blockers = RandomBlockers(g, seeds, options.budget, options.seed);
      break;
    }
    case Algorithm::kOutDegree: {
      obs::ScopedSpan span(trace, obs::SolveStage::kSelect);
      result.blockers = OutDegreeBlockers(g, seeds, options.budget);
      break;
    }
    case Algorithm::kPageRank: {
      obs::ScopedSpan span(trace, obs::SolveStage::kSelect);
      result.blockers = PageRankBlockers(g, seeds, options.budget);
      break;
    }
    case Algorithm::kBetweenness: {
      // Exact Brandes up to ~2k vertices, then pivot-sampled (O(n·m) would
      // dominate the solve otherwise).
      obs::ScopedSpan span(trace, obs::SolveStage::kSelect);
      BetweennessOptions bc;
      if (g.NumVertices() > 2048) {
        bc.pivots = 512;
        bc.seed = options.seed;
      }
      result.blockers = BetweennessBlockers(g, seeds, options.budget, bc);
      break;
    }
    case Algorithm::kBaselineGreedy: {
      UnifiedInstance inst = [&] {
        obs::ScopedSpan span(trace, obs::SolveStage::kUnify);
        return UnifySeeds(g, seeds, options.vertex_order);
      }();
      BaselineGreedyOptions bg;
      bg.budget = options.budget;
      bg.mc_rounds = options.mc_rounds;
      bg.seed = options.seed;
      bg.sampler_kind = options.sampler_kind;
      bg.time_limit_seconds = options.time_limit_seconds;
      bg.trace = trace;
      BlockerSelection sel = BaselineGreedy(inst.graph, inst.root, bg);
      result.blockers = inst.BlockersToOriginal(sel.blockers);
      result.stats = sel.stats;
      result.stats.selection_trace =
          inst.BlockersToOriginal(sel.stats.selection_trace);
      break;
    }
    case Algorithm::kAdvancedGreedy:
    case Algorithm::kGreedyReplace: {
      // The cold path: an empty entry, so SolveGreedy unifies and builds.
      WarmEntry cold;
      SolverResult solved =
          SolveGreedy(g, seeds, options, Deadline(options.time_limit_seconds),
                      trace, &cold);
      result.blockers = std::move(solved.blockers);
      result.stats = std::move(solved.stats);
      break;
    }
  }

  // The heuristics commit their picks in the order they return them.
  if (result.stats.selection_trace.empty() && !result.blockers.empty()) {
    result.stats.selection_trace = result.blockers;
  }

  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace vblock
