// Micro-benchmark for geometric-skip live-edge sampling: raw sampler draw
// throughput — per-edge coins vs geometric skips over the
// probability-grouped adjacency — on the three propagation models the
// paper evaluates: weighted cascade (WC), trivalency (TR), and a uniform
// constant-p assignment. Each instance measures both traversal directions:
// forward root-reachable draws (ReachableSampler, the Algorithm-2 inner
// loop) and reverse RR-set draws (RrSetGenerator, the direction where WC
// collapses every vertex's in-edges into a single probability run). Emits
// one JSON object on stdout so CI can archive the numbers.
//
// Acceptance targets (advisory CI checks): skip ≥ 2x per-edge draw
// throughput on the WC RR direction, and ≥ 0.9x on the WC forward one.
//
// Environment knobs (defaults are the tiny synthetic config):
//   VBLOCK_SKIP_BENCH_N       vertices              (default 8000)
//   VBLOCK_SKIP_BENCH_M       directed edges        (default 400000)
//   VBLOCK_SKIP_BENCH_THETA   draws per measurement (default 2000)
//   VBLOCK_DRAW_ISA           =scalar forces the block-fill transform's
//                             scalar fallback (read by the library dispatch)

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cascade/rr_sets.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gen/generators.h"
#include "graph/prob_grouped_view.h"
#include "prob/probability_models.h"
#include "sampling/batched_draw.h"
#include "sampling/reachable_sampler.h"

namespace {

using namespace vblock;
using vblock::bench::EnvOr;

constexpr SamplerKind kKinds[] = {SamplerKind::kPerEdgeCoin,
                                  SamplerKind::kGeometricSkip};
constexpr size_t kNumKinds = 2;

struct DirectionResult {
  // Indexed parallel to kKinds: per-edge coins, skip.
  double seconds[kNumKinds] = {0, 0};
  // Mean sampled-region size per kind — the estimates the draws feed are
  // unbiased under every kind, so these must agree closely.
  double mean_size[kNumKinds] = {0, 0};
  // skip vs per-edge.
  double speedup = 0;

  void FinishRatios() {
    speedup = seconds[1] > 0 ? seconds[0] / seconds[1] : 0;
  }
};

struct InstanceResult {
  std::string model;
  uint32_t classes = 0;
  double grouped_build_seconds = 0;
  DirectionResult forward;
  DirectionResult rr;
};

// θ forward draws rooted at the max-out-degree vertex (a meaty frontier).
void MeasureForward(const Graph& g, uint32_t theta, uint64_t seed,
                    DirectionResult* out) {
  VertexId root = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(root)) root = v;
  }
  for (size_t k = 0; k < kNumKinds; ++k) {
    ReachableSampler sampler(g, root, nullptr, kKinds[k]);
    SampledGraph s;
    uint64_t total_size = 0;
    Timer timer;
    for (uint32_t i = 0; i < theta; ++i) {
      Rng rng(MixSeed(seed, i));
      sampler.Sample(rng, &s);
      total_size += s.NumVertices();
    }
    out->seconds[k] = timer.ElapsedSeconds();
    out->mean_size[k] = static_cast<double>(total_size) / theta;
  }
  out->FinishRatios();
}

// θ RR-set draws of uniformly random targets. Each draw gets its own
// MixSeed stream, so every kind samples the same target sequence (the
// target is the stream's first variate) and only the edge draws differ.
void MeasureRr(const Graph& g, uint32_t theta, uint64_t seed,
               DirectionResult* out) {
  for (size_t k = 0; k < kNumKinds; ++k) {
    RrSetGenerator generator(g, kKinds[k]);
    std::vector<VertexId> rr;
    uint64_t total_size = 0;
    Timer timer;
    for (uint32_t i = 0; i < theta; ++i) {
      Rng rng(MixSeed(seed, i));
      generator.SampleRandomTarget(rng, &rr);
      total_size += rr.size();
    }
    out->seconds[k] = timer.ElapsedSeconds();
    out->mean_size[k] = static_cast<double>(total_size) / theta;
  }
  out->FinishRatios();
}

InstanceResult MeasureInstance(const std::string& model, const Graph& g,
                               uint32_t theta, uint64_t seed) {
  InstanceResult result;
  result.model = model;
  // Build the grouped view up front so the one-time analysis cost is
  // reported separately and excluded from the throughput ratio.
  Timer build_timer;
  result.classes = g.GroupedView().NumClasses();
  result.grouped_build_seconds = build_timer.ElapsedSeconds();
  MeasureForward(g, theta, seed, &result.forward);
  MeasureRr(g, theta, MixSeed(seed, 0x5eed), &result.rr);
  return result;
}

void PrintDirection(const char* name, const DirectionResult& d,
                    const char* trailing_comma) {
  std::printf(
      "    \"%s\": {\"per_edge_seconds\": %.4f, \"skip_seconds\": %.4f, "
      "\"speedup\": %.2f, \"per_edge_mean_size\": %.2f, "
      "\"skip_mean_size\": %.2f}%s\n",
      name, d.seconds[0], d.seconds[1], d.speedup, d.mean_size[0],
      d.mean_size[1], trailing_comma);
}

}  // namespace

int main() {
  const uint32_t n = EnvOr("VBLOCK_SKIP_BENCH_N", 8000);
  const uint32_t m = EnvOr("VBLOCK_SKIP_BENCH_M", 400000);
  const uint32_t theta = EnvOr("VBLOCK_SKIP_BENCH_THETA", 2000);
  const uint64_t seed = 20230227;

  const Graph base = GenerateErdosRenyi(n, m, seed);
  std::vector<std::pair<std::string, Graph>> instances;
  instances.emplace_back("wc", WithWeightedCascade(base));
  instances.emplace_back("tr", WithTrivalency(base, seed + 1));
  instances.emplace_back("uniform", WithConstantProbability(base, 0.02));

  std::printf("{\n  \"bench\": \"skip_sampling\",\n");
  std::printf(
      "  \"graph\": {\"model\": \"erdos_renyi\", \"n\": %u, \"m\": %llu},\n",
      n, static_cast<unsigned long long>(base.NumEdges()));
  std::printf("  \"draw_isa\": \"%s\",\n",
              ActiveDrawIsa() == DrawIsa::kAvx2 ? "avx2" : "scalar");
  std::printf("  \"theta\": %u,\n  \"instances\": {\n", theta);
  for (size_t i = 0; i < instances.size(); ++i) {
    const InstanceResult r =
        MeasureInstance(instances[i].first, instances[i].second, theta, seed);
    std::printf("    \"%s\": {\n", r.model.c_str());
    std::printf("    \"probability_classes\": %u,\n", r.classes);
    std::printf("    \"grouped_build_seconds\": %.4f,\n",
                r.grouped_build_seconds);
    PrintDirection("forward", r.forward, ",");
    PrintDirection("rr", r.rr, "");
    std::printf("    }%s\n", i + 1 < instances.size() ? "," : "");
  }
  std::printf("  }\n}\n");
  return 0;
}
