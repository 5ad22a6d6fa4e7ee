// Ablation (google-benchmark): the engine's dominator step against the
// naive iterative dominator algorithm, on live-edge samples of increasing
// size.
//
// docs/DESIGN.md §1 calls out the dominator-tree construction as the inner
// loop of Algorithm 2 (it runs θ times per greedy round). BM_EnginePath
// times exactly what SampleScorer runs per sample — ComputeDominatorTreeInto
// then ComputeSubtreeSizesInto on one reused DominatorWorkspace — so its
// time_per_vertex counter compares with perfbench's domtree.ns_per_vertex.
// Inputs: θ = 1000 regions of the perfbench graphs (Wiki-Vote TR and
// EmailCore WC from a three-seed super-seed: tens of vertices each), single
// samples of 1k–16k vertices, and a deep chain with back edges.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <random>
#include <vector>

#include "common/rng.h"
#include "core/unified_instance.h"
#include "domtree/dominator_tree.h"
#include "gen/dataset_catalog.h"
#include "gen/generators.h"
#include "prob/probability_models.h"
#include "sampling/reachable_sampler.h"

namespace vblock {
namespace {

using Samples = std::vector<SampledGraph>;

// One representative live-edge sample of a WC-weighted BA graph with
// roughly `n` vertices, regenerated deterministically per benchmark run.
SampledGraph MakeSample(VertexId n) {
  Graph g = WithConstantProbability(GenerateBarabasiAlbert(n, 4, 7), 0.7);
  ReachableSampler sampler(g, 0);
  SampledGraph sample;
  Rng rng(11);
  // Draw until we get a reasonably large sample (p=0.7 keeps most of it).
  for (int i = 0; i < 16; ++i) {
    sampler.Sample(rng, &sample);
    if (sample.NumVertices() > n / 2) break;
  }
  return sample;
}

// θ = 1000 regions of a catalog dataset, drawn from the super-seed over
// three vertices of the top out-degree quarter (the band perfbench draws
// its seed sets from). Mean region sizes come out near the workloads'
// sampling.region_vertices: about 65 on Wiki-Vote TR, 90 on EmailCore WC.
Samples MakeRegions(const char* dataset, double scale, bool trivalency) {
  Graph g = MakeDataset(*FindDataset(dataset), scale, 7);
  g = trivalency ? WithTrivalency(g, 1) : WithWeightedCascade(g);
  std::vector<VertexId> band(g.NumVertices());
  std::iota(band.begin(), band.end(), 0);
  std::stable_sort(band.begin(), band.end(), [&](VertexId a, VertexId b) {
    return g.OutDegree(a) > g.OutDegree(b);
  });
  band.resize(band.size() / 4);
  std::vector<VertexId> seeds;
  std::mt19937_64 seed_rng(1);
  std::sample(band.begin(), band.end(), std::back_inserter(seeds), 3,
              seed_rng);
  const UnifiedInstance inst = UnifySeeds(g, seeds);
  ReachableSampler sampler(inst.graph, inst.root);
  Rng rng(11);
  Samples samples(1000);
  for (SampledGraph& s : samples) sampler.Sample(rng, &s);
  return samples;
}

// Adversarial depth: a long chain with back edges. The naive iterative
// algorithm needs many passes here (its fixpoint converges slowly on deep
// graphs), and the engine's nearest-common-ancestor walks are longest.
SampledGraph MakeDeepSample(VertexId n) {
  SampledGraph s;
  s.offsets.push_back(0);
  for (VertexId v = 0; v < n; ++v) {
    s.to_parent.push_back(v);
    if (v + 1 < n) s.targets.push_back(v + 1);       // chain edge
    if (v >= 2 && v % 16 == 0) s.targets.push_back(v / 2);  // back edge
    s.offsets.push_back(static_cast<uint32_t>(s.targets.size()));
  }
  return s;
}

const Samples& TrRegions() {
  static const Samples s = MakeRegions("Wiki-Vote", 0.1, true);
  return s;
}
const Samples& WcRegions() {
  static const Samples s = MakeRegions("EmailCore", 1.0, false);
  return s;
}
template <VertexId kN>
const Samples& BaSample() {
  static const Samples s{MakeSample(kN)};
  return s;
}
template <VertexId kN>
const Samples& DeepSample() {
  static const Samples s{MakeDeepSample(kN)};
  return s;
}

// Runs `step` over every sample per iteration; reports the mean sample
// size and the time per sample vertex (printed with an SI prefix, e.g.
// "63.3ns").
template <typename Step>
void RunOver(benchmark::State& state, const Samples& samples, Step step) {
  double vertices = 0;
  for (const SampledGraph& s : samples) vertices += s.NumVertices();
  for (auto _ : state) {
    for (const SampledGraph& s : samples) step(s);
  }
  state.counters["mean_n"] = vertices / static_cast<double>(samples.size());
  state.counters["time_per_vertex"] = benchmark::Counter(
      vertices, benchmark::Counter::kIsIterationInvariantRate |
                    benchmark::Counter::kInvert);
}

void BM_EnginePath(benchmark::State& state, const Samples& (*input)()) {
  DominatorWorkspace workspace;
  DominatorTree tree;
  std::vector<VertexId> sizes;
  RunOver(state, input(), [&](const SampledGraph& s) {
    workspace.ComputeDominatorTreeInto(s.View(), 0, &tree);
    workspace.ComputeSubtreeSizesInto(tree, &sizes);
    benchmark::DoNotOptimize(sizes.data());
  });
}

void BM_Naive(benchmark::State& state, const Samples& (*input)()) {
  RunOver(state, input(), [](const SampledGraph& s) {
    DominatorTree tree = ComputeDominatorTreeNaive(s.View(), 0);
    benchmark::DoNotOptimize(tree.idom.data());
  });
}

BENCHMARK_CAPTURE(BM_EnginePath, tr_regions, &TrRegions);
BENCHMARK_CAPTURE(BM_EnginePath, wc_regions, &WcRegions);
BENCHMARK_CAPTURE(BM_EnginePath, ba_1k, &BaSample<1000>);
BENCHMARK_CAPTURE(BM_EnginePath, ba_4k, &BaSample<4000>);
BENCHMARK_CAPTURE(BM_EnginePath, ba_16k, &BaSample<16000>);
BENCHMARK_CAPTURE(BM_EnginePath, deep_4k, &DeepSample<4000>);
BENCHMARK_CAPTURE(BM_EnginePath, deep_16k, &DeepSample<16000>);
BENCHMARK_CAPTURE(BM_Naive, tr_regions, &TrRegions);
BENCHMARK_CAPTURE(BM_Naive, wc_regions, &WcRegions);
BENCHMARK_CAPTURE(BM_Naive, ba_1k, &BaSample<1000>);
BENCHMARK_CAPTURE(BM_Naive, ba_4k, &BaSample<4000>);
BENCHMARK_CAPTURE(BM_Naive, ba_16k, &BaSample<16000>);
BENCHMARK_CAPTURE(BM_Naive, deep_4k, &DeepSample<4000>);
BENCHMARK_CAPTURE(BM_Naive, deep_16k, &DeepSample<16000>);

}  // namespace
}  // namespace vblock

BENCHMARK_MAIN();
