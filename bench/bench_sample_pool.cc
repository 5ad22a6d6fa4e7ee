// Micro-benchmark for the persistent SamplePool / SpreadDecreaseEngine
// refactor: AdvancedGreedy over the incremental pool (both reuse modes)
// versus the pre-refactor path that re-runs one-shot ComputeSpreadDecrease
// per greedy round. Emits a single JSON object on stdout so CI can archive
// the numbers.
//
// Acceptance target (ISSUE 2): pooled (kPrune) mode ≥ 3× faster than the
// per-round resample path at budget ≥ 20, θ ≥ 2000, with the final blocked
// spread within 2%.
//
// Environment knobs (defaults are the tiny synthetic config):
//   VBLOCK_POOL_BENCH_N       vertices       (default 3000)
//   VBLOCK_POOL_BENCH_BUDGET  blockers       (default 20)
//   VBLOCK_POOL_BENCH_THETA   samples        (default 2000)
//   VBLOCK_POOL_BENCH_THREADS sampling threads (default 1)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/spread_decrease.h"
#include "gen/generators.h"
#include "graph/vertex_mask.h"
#include "prob/probability_models.h"

namespace {

using namespace vblock;
using vblock::bench::EnvOr;

struct ArmResult {
  double seconds = 0;
  double spread = 0;
  std::vector<VertexId> blockers;
};

// The pre-refactor AdvancedGreedy loop: every round re-draws all θ samples
// through the one-shot estimator (per-round seed stream, as the old
// implementation did) — the baseline the pool is measured against.
ArmResult RunResamplePath(const Graph& g, VertexId root, uint32_t budget,
                          uint32_t theta, uint64_t seed, uint32_t threads) {
  ArmResult arm;
  Timer timer;
  VertexMask blocked(g.NumVertices());
  for (uint32_t round = 0; round < budget; ++round) {
    SpreadDecreaseOptions sd;
    sd.theta = theta;
    sd.seed = MixSeed(seed, round);
    sd.threads = threads;
    SpreadDecreaseResult scores = ComputeSpreadDecrease(g, root, sd, &blocked);
    VertexId best = kInvalidVertex;
    double best_delta = -1.0;
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      if (u == root || blocked.Test(u)) continue;
      if (scores.delta[u] > best_delta) {
        best = u;
        best_delta = scores.delta[u];
      }
    }
    if (best == kInvalidVertex) break;
    blocked.Set(best);
    arm.blockers.push_back(best);
  }
  arm.seconds = timer.ElapsedSeconds();
  return arm;
}

ArmResult RunPooled(const Graph& g, VertexId root, uint32_t budget,
                    uint32_t theta, uint64_t seed, uint32_t threads,
                    SampleReuse reuse) {
  ArmResult arm;
  Timer timer;
  GreedyOptions opts;
  opts.budget = budget;
  opts.theta = theta;
  opts.seed = seed;
  opts.threads = threads;
  opts.sample_reuse = reuse;
  arm.blockers = AdvancedGreedy(g, root, opts).blockers;
  arm.seconds = timer.ElapsedSeconds();
  return arm;
}

void Evaluate(const Graph& g, VertexId root, ArmResult* arm) {
  EvaluationOptions eval;
  eval.mc_rounds = 100000;
  eval.seed = 4242;
  arm->spread = EvaluateSpread(g, {root}, arm->blockers, eval);
}

}  // namespace

int main() {
  const uint32_t n = EnvOr("VBLOCK_POOL_BENCH_N", 3000);
  const uint32_t budget = EnvOr("VBLOCK_POOL_BENCH_BUDGET", 20);
  const uint32_t theta = EnvOr("VBLOCK_POOL_BENCH_THETA", 2000);
  const uint32_t threads = EnvOr("VBLOCK_POOL_BENCH_THREADS", 1);
  const uint64_t seed = 20230227;
  const VertexId root = 0;

  Graph g = WithWeightedCascade(GenerateBarabasiAlbert(n, 4, seed));

  ArmResult resample_path =
      RunResamplePath(g, root, budget, theta, seed, threads);
  ArmResult pooled_prune =
      RunPooled(g, root, budget, theta, seed, threads, SampleReuse::kPrune);
  ArmResult pooled_resample =
      RunPooled(g, root, budget, theta, seed, threads, SampleReuse::kResample);
  Evaluate(g, root, &resample_path);
  Evaluate(g, root, &pooled_prune);
  Evaluate(g, root, &pooled_resample);

  const double speedup = pooled_prune.seconds > 0
                             ? resample_path.seconds / pooled_prune.seconds
                             : 0.0;
  const double spread_ratio =
      resample_path.spread > 0 ? pooled_prune.spread / resample_path.spread
                               : 0.0;

  std::printf(
      "{\n"
      "  \"bench\": \"sample_pool\",\n"
      "  \"graph\": {\"model\": \"barabasi_albert_wc\", \"n\": %u, \"m\": %llu},\n"
      "  \"budget\": %u,\n"
      "  \"theta\": %u,\n"
      "  \"threads\": %u,\n"
      "  \"resample_path\": {\"seconds\": %.4f, \"blocked_spread\": %.4f},\n"
      "  \"pooled_prune\": {\"seconds\": %.4f, \"blocked_spread\": %.4f},\n"
      "  \"pooled_resample\": {\"seconds\": %.4f, \"blocked_spread\": %.4f},\n"
      "  \"speedup_pooled_vs_resample_path\": %.2f,\n"
      "  \"spread_ratio_pooled_vs_resample_path\": %.4f\n"
      "}\n",
      n, static_cast<unsigned long long>(g.NumEdges()), budget, theta, threads,
      resample_path.seconds, resample_path.spread, pooled_prune.seconds,
      pooled_prune.spread, pooled_resample.seconds, pooled_resample.spread,
      speedup, spread_ratio);
  return 0;
}
