// Micro-benchmark for the persistent SamplePool / SpreadDecreaseEngine
// refactor: AdvancedGreedy over the incremental pool (both reuse modes)
// versus the pre-refactor path that re-runs one-shot ComputeSpreadDecrease
// per greedy round. A restore arm per reuse mode times
// SpreadDecreaseEngine::Restore after AdvancedGreedy runs and counts the
// sample draws it makes (0: restore puts saved regions back). An unblock
// arm per reuse mode unblocks and re-blocks each AG blocker, as GR's phase
// 2 does, and reports the samples each Unblock re-derives, the share of
// them that hold the vertex afterwards (1 under kResample, which extends
// only the samples the vertex joins) and the mean Unblock time.
// `ag_reuse_modes_agree` is true when AG picks the same blockers under both
// reuse modes, as it must: a Block prunes the stored worlds in both. Emits
// a single JSON object on stdout so CI can archive the numbers.
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

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/evaluator.h"
#include "core/greedy.h"
#include "core/spread_decrease.h"
#include "core/spread_decrease_engine.h"
#include "gen/generators.h"
#include "graph/vertex_mask.h"
#include "obs/solve_trace.h"
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

struct RestoreArm {
  double restore_ms = 0;            // mean over the cycles
  uint64_t restore_draw_calls = 0;  // kSampleDraw calls inside Restore()
};

// Build once, then run `cycles` × (AdvancedGreedy at `budget`, Restore()),
// timing each Restore and counting the sample draws made inside it.
RestoreArm RunRestore(const Graph& g, VertexId root, uint32_t budget,
                      uint32_t theta, uint64_t seed, uint32_t threads,
                      SampleReuse reuse) {
  constexpr int kCycles = 3;
  SpreadDecreaseOptions sd;
  sd.theta = theta;
  sd.seed = seed;
  sd.threads = threads;
  sd.sample_reuse = reuse;
  SpreadDecreaseEngine engine(g, root, sd);
  engine.Build();
  obs::SolveTrace trace;
  engine.set_trace(&trace);
  RestoreArm arm;
  double seconds = 0;
  for (int c = 0; c < kCycles; ++c) {
    AdvancedGreedyWithEngine(&engine, budget, Deadline(), &trace);
    const uint64_t draws = trace.stage_calls(obs::SolveStage::kSampleDraw);
    Timer timer;
    engine.Restore();
    seconds += timer.ElapsedSeconds();
    arm.restore_draw_calls +=
        trace.stage_calls(obs::SolveStage::kSampleDraw) - draws;
  }
  engine.set_trace(nullptr);
  arm.restore_ms = seconds * 1e3 / kCycles;
  return arm;
}

struct UnblockArm {
  double rederived_per_unblock = 0;
  double reach_share = 0;  // re-derived samples holding the vertex after
  double unblock_ms = 0;   // mean over the Unblocks
};

// Build once, block `budget` greedy picks (AdvancedGreedy's), then
// unblock and re-block each pick in turn. An Unblock's re-derived samples
// are its kSampleDraw calls; a sample holding the vertex afterwards must
// be one of them, since the vertex was blocked before.
UnblockArm RunUnblock(const Graph& g, VertexId root, uint32_t budget,
                      uint32_t theta, uint64_t seed, uint32_t threads,
                      SampleReuse reuse) {
  SpreadDecreaseOptions sd;
  sd.theta = theta;
  sd.seed = seed;
  sd.threads = threads;
  sd.sample_reuse = reuse;
  SpreadDecreaseEngine engine(g, root, sd);
  engine.Build();
  std::vector<VertexId> blockers;
  for (uint32_t round = 0; round < budget; ++round) {
    const VertexId v = engine.BestUnblocked();
    if (v == kInvalidVertex) break;
    engine.Block(v);
    blockers.push_back(v);
  }
  obs::SolveTrace trace;
  engine.set_trace(&trace);
  double rederived = 0, holding = 0, seconds = 0;
  for (VertexId v : blockers) {
    const uint64_t draws = trace.stage_calls(obs::SolveStage::kSampleDraw);
    Timer timer;
    engine.Unblock(v);
    seconds += timer.ElapsedSeconds();
    rederived += static_cast<double>(
        trace.stage_calls(obs::SolveStage::kSampleDraw) - draws);
    for (uint32_t i = 0; i < theta; ++i) {
      const std::vector<VertexId>& region = engine.PoolSample(i).to_parent;
      holding += std::find(region.begin(), region.end(), v) != region.end();
    }
    engine.Block(v);
  }
  engine.set_trace(nullptr);
  UnblockArm arm;
  if (!blockers.empty()) {
    arm.rederived_per_unblock = rederived / blockers.size();
    arm.unblock_ms = seconds * 1e3 / blockers.size();
  }
  arm.reach_share = rederived > 0 ? holding / rederived : 0;
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
  const RestoreArm restore_prune =
      RunRestore(g, root, budget, theta, seed, threads, SampleReuse::kPrune);
  const RestoreArm restore_resample = RunRestore(
      g, root, budget, theta, seed, threads, SampleReuse::kResample);
  const UnblockArm unblock_prune =
      RunUnblock(g, root, budget, theta, seed, threads, SampleReuse::kPrune);
  const UnblockArm unblock_resample = RunUnblock(
      g, root, budget, theta, seed, threads, SampleReuse::kResample);
  Evaluate(g, root, &resample_path);
  Evaluate(g, root, &pooled_prune);
  Evaluate(g, root, &pooled_resample);

  const double speedup = pooled_prune.seconds > 0
                             ? resample_path.seconds / pooled_prune.seconds
                             : 0.0;
  const double spread_ratio =
      resample_path.spread > 0 ? pooled_prune.spread / resample_path.spread
                               : 0.0;
  const bool modes_agree = pooled_prune.blockers == pooled_resample.blockers;

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
      "  \"spread_ratio_pooled_vs_resample_path\": %.4f,\n"
      "  \"ag_reuse_modes_agree\": %s,\n"
      "  \"restore\": {\"prune\": {\"restore_ms\": %.4f, "
      "\"restore_draw_calls\": %llu}, \"resample\": {\"restore_ms\": %.4f, "
      "\"restore_draw_calls\": %llu}},\n"
      "  \"unblock\": {\"prune\": {\"rederived_per_unblock\": %.2f, "
      "\"reach_share\": %.6f, \"unblock_ms\": %.4f}, \"resample\": "
      "{\"rederived_per_unblock\": %.2f, \"reach_share\": %.6f, "
      "\"unblock_ms\": %.4f}}\n"
      "}\n",
      n, static_cast<unsigned long long>(g.NumEdges()), budget, theta, threads,
      resample_path.seconds, resample_path.spread, pooled_prune.seconds,
      pooled_prune.spread, pooled_resample.seconds, pooled_resample.spread,
      speedup, spread_ratio, modes_agree ? "true" : "false",
      restore_prune.restore_ms,
      static_cast<unsigned long long>(restore_prune.restore_draw_calls),
      restore_resample.restore_ms,
      static_cast<unsigned long long>(restore_resample.restore_draw_calls),
      unblock_prune.rederived_per_unblock, unblock_prune.reach_share,
      unblock_prune.unblock_ms, unblock_resample.rederived_per_unblock,
      unblock_resample.reach_share, unblock_resample.unblock_ms);
  return 0;
}
