#include "core/query_key.h"

#include <algorithm>

namespace vblock {

void NormalizeIrrelevantKnobs(QueryKey* key) {
  switch (key->algorithm) {
    case Algorithm::kOutDegree:
    case Algorithm::kPageRank:
      // Fully deterministic rankings: not even the seed matters.
      key->seed = 0;
      [[fallthrough]];
    case Algorithm::kRandom:
    case Algorithm::kBetweenness:
      // Top-k heuristics: no sampling, no MC, no deadline handling. The
      // seed stays for RA (it draws from it) and BC (its pivot path reads
      // it on large graphs).
      key->theta = 0;
      key->mc_rounds = 0;
      key->sample_reuse = SampleReuse::kResample;
      key->sampler_kind = SamplerKind::kGeometricSkip;
      key->time_limit_seconds = 0;
      break;
    case Algorithm::kBaselineGreedy:
      key->theta = 0;
      key->sample_reuse = SampleReuse::kResample;
      break;
    case Algorithm::kAdvancedGreedy:
    case Algorithm::kGreedyReplace:
      key->mc_rounds = 0;
      break;
  }
}

SolverOptions SolverOptionsForKey(const QueryKey& key, uint32_t budget,
                                  uint32_t threads) {
  SolverOptions opts;
  opts.algorithm = key.algorithm;
  opts.budget = budget;
  opts.theta = key.theta;
  opts.mc_rounds = key.mc_rounds;
  opts.seed = key.seed;
  opts.threads = threads;
  opts.time_limit_seconds = key.time_limit_seconds;
  opts.sample_reuse = key.sample_reuse;
  opts.sampler_kind = key.sampler_kind;
  return opts;
}

QueryKey CanonicalQueryKey(const std::vector<VertexId>& seeds,
                           Algorithm algorithm,
                           const SolverOptions& resolved) {
  QueryKey key;
  key.algorithm = algorithm;
  key.theta = resolved.theta;
  key.mc_rounds = resolved.mc_rounds;
  key.seed = resolved.seed;
  key.sample_reuse = resolved.sample_reuse;
  key.sampler_kind = resolved.sampler_kind;
  key.time_limit_seconds = resolved.time_limit_seconds;
  NormalizeIrrelevantKnobs(&key);
  key.seeds = seeds;
  std::sort(key.seeds.begin(), key.seeds.end());
  return key;
}

}  // namespace vblock
