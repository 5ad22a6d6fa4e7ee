// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// Canonical work-sharing key for IMIN queries.
//
// Two queries may share work exactly when they resolve to the same
// QueryKey: same canonical (sorted) seed set, algorithm, and the subset of
// solver knobs that algorithm actually reads (irrelevant knobs are zeroed
// so queries differing only in, say, an mc_rounds override still coincide).
// Both amortization layers key on it:
//  * core/batch_solver.h groups a batch's queries into one shared solve per
//    distinct key (budget excluded — a budget sweep shares one run), and
//  * service/pool_cache.h addresses warmed θ-sample engines by the key's
//    pool-relevant projection (PoolCache::KeyFor).
// tests/batch_solver_test.cc pins the two users to this single helper with
// a keys-agree regression test.

#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/sampler_kind.h"
#include "core/solver.h"
#include "sampling/sample_reuse.h"

namespace vblock {

/// Everything that decides whether two queries may share work, plus the
/// canonical (sorted) seed set. Ordered (std::map iteration over QueryKeys
/// fixes a deterministic group order independent of submission order) and
/// equality-comparable (cache addressing, in-flight deduplication).
struct QueryKey {
  Algorithm algorithm = Algorithm::kGreedyReplace;
  uint32_t theta = 0;
  uint32_t mc_rounds = 0;
  uint64_t seed = 0;
  SampleReuse sample_reuse = SampleReuse::kResample;
  SamplerKind sampler_kind = SamplerKind::kGeometricSkip;
  double time_limit_seconds = 0;
  std::vector<VertexId> seeds;  // sorted ascending

  friend bool operator==(const QueryKey&, const QueryKey&) = default;
  bool operator<(const QueryKey& o) const {
    return std::tie(algorithm, theta, mc_rounds, seed, sample_reuse,
                    sampler_kind, time_limit_seconds, seeds) <
           std::tie(o.algorithm, o.theta, o.mc_rounds, o.seed, o.sample_reuse,
                    o.sampler_kind, o.time_limit_seconds, o.seeds);
  }
};

/// Zeroes the knobs `key->algorithm` never reads so that queries differing
/// only in an irrelevant override still share one key (and one full solve /
/// one warm pool). The zeroed values flow into the shared solve unread, so
/// bit-exactness with the standalone call is unaffected.
void NormalizeIrrelevantKnobs(QueryKey* key);

/// Builds the canonical key for a query: per-field defaults applied, seeds
/// sorted, irrelevant knobs normalized. `seeds` must be a valid seed set
/// (ValidateIminQuery) — duplicates would break canonical comparison.
QueryKey CanonicalQueryKey(const std::vector<VertexId>& seeds,
                           Algorithm algorithm,
                           const SolverOptions& resolved);

/// Expands a canonical key back into the SolverOptions a solve for it must
/// run with — the single inverse both the batch solver and the query
/// service use, so a knob added to QueryKey cannot silently resolve
/// differently between them. `budget` and `threads` are the per-run inputs
/// that are deliberately not part of the key; callers mapping a request
/// deadline overwrite time_limit_seconds afterwards.
SolverOptions SolverOptionsForKey(const QueryKey& key, uint32_t budget,
                                  uint32_t threads);

}  // namespace vblock
