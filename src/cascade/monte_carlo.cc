#include "cascade/monte_carlo.h"

#include <algorithm>
#include <optional>

#include "cascade/ic_model.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace vblock {
namespace {

uint32_t SlotsFor(const MonteCarloOptions& options) {
  return std::max<uint32_t>(
      1, std::min({options.threads, options.rounds, ExecutorWidth()}));
}

}  // namespace

double EstimateSpread(const Graph& g, const std::vector<VertexId>& seeds,
                      const MonteCarloOptions& options,
                      const VertexMask* blocked) {
  VBLOCK_CHECK_MSG(options.rounds > 0, "rounds must be positive");
  const uint32_t slots = SlotsFor(options);

  // Per-round seeding makes each round's spread independent of scheduling;
  // the per-slot partials are integers, so the slot-order reduction is
  // exact and the estimate is bit-identical for any slot count.
  std::vector<std::optional<IcSimulator>> sims(slots);
  std::vector<uint64_t> partial(slots, 0);
  ParallelFor(options.rounds, slots,
              [&](uint32_t t, uint32_t begin, uint32_t end) {
                if (!sims[t]) sims[t].emplace(g, options.sampler_kind);
                uint64_t sum = 0;
                for (uint32_t i = begin; i < end; ++i) {
                  Rng rng(MixSeed(options.seed, i));
                  sum += sims[t]->Run(seeds, rng, blocked);
                }
                partial[t] += sum;
              });
  uint64_t total = 0;
  for (uint64_t p : partial) total += p;
  return static_cast<double>(total) / options.rounds;
}

double EstimateSpreadWithBlockers(const Graph& g,
                                  const std::vector<VertexId>& seeds,
                                  const std::vector<VertexId>& blockers,
                                  const MonteCarloOptions& options) {
  VertexMask mask = VertexMask::FromVertices(g.NumVertices(), blockers);
  return EstimateSpread(g, seeds, options, &mask);
}

std::vector<double> EstimateActivationProbabilities(
    const Graph& g, const std::vector<VertexId>& seeds,
    const MonteCarloOptions& options, const VertexMask* blocked) {
  VBLOCK_CHECK_MSG(options.rounds > 0, "rounds must be positive");
  const uint32_t slots = SlotsFor(options);

  // Per-slot hit counters merged in slot order: integer sums, so the
  // result is identical for any slot count.
  std::vector<std::optional<IcSimulator>> sims(slots);
  std::vector<std::vector<uint64_t>> partial(slots);
  ParallelFor(options.rounds, slots,
              [&](uint32_t t, uint32_t begin, uint32_t end) {
                if (!sims[t]) {
                  sims[t].emplace(g, options.sampler_kind);
                  partial[t].assign(g.NumVertices(), 0);
                }
                for (uint32_t i = begin; i < end; ++i) {
                  Rng rng(MixSeed(options.seed, i));
                  sims[t]->Run(seeds, rng, blocked);
                  for (VertexId v : sims[t]->LastActivated()) ++partial[t][v];
                }
              });
  std::vector<uint64_t> hits(g.NumVertices(), 0);
  for (const std::vector<uint64_t>& slot_hits : partial) {
    for (VertexId v = 0; v < slot_hits.size(); ++v) hits[v] += slot_hits[v];
  }

  std::vector<double> probs(g.NumVertices(), 0.0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    probs[v] = static_cast<double>(hits[v]) / options.rounds;
  }
  return probs;
}

}  // namespace vblock
