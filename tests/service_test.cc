// Tests for the in-process query service (src/service/): graph registry
// semantics, warm-pool cold/warm bit-exactness across AG/GR × reuse modes,
// LRU eviction under a byte budget, admission control, request deadlines,
// in-flight coalescing, concurrent-submit determinism, and the text
// protocol (parser round-trips, error taxonomy, session end-to-end).

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "gen/generators.h"
#include "graph/graph_delta.h"
#include "obs/metrics.h"
#include "prob/probability_models.h"
#include "service/graph_registry.h"
#include "service/pool_cache.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "testing/toy_graphs.h"

namespace vblock {
namespace {

// Shared toy workload: a 300-vertex WC Barabási–Albert graph — small
// enough that a θ=200 AG/GR solve is milliseconds, structured enough that
// blocker choices are non-trivial.
Graph TestGraph() {
  return WithWeightedCascade(GenerateBarabasiAlbert(300, 3, /*seed=*/7));
}

ServiceOptions FastOptions(uint32_t num_threads = 2) {
  ServiceOptions options;
  options.num_threads = num_threads;
  options.defaults.theta = 200;
  options.defaults.mc_rounds = 200;
  options.defaults.seed = 11;
  return options;
}

IminRequest MakeRequest(std::vector<VertexId> seeds, uint32_t budget,
                        Algorithm algorithm,
                        SampleReuse reuse = SampleReuse::kPrune) {
  IminQuery query;
  query.seeds = std::move(seeds);
  query.budget = budget;
  query.algorithm = algorithm;
  query.sample_reuse = reuse;
  return IminRequest{.graph = "g", .query = std::move(query)};
}

// One cell of the service's metrics snapshot (what STATS reports under the
// matching field).
double Cell(const QueryService& service, const std::string& name) {
  const std::vector<obs::MetricSnapshot> snapshot = service.Stats();
  const obs::MetricSnapshot* m = obs::FindMetric(snapshot, name);
  EXPECT_NE(m, nullptr) << name;
  return m != nullptr ? m->value : -1;
}

// Latency samples recorded so far (one per delivered request).
uint64_t LatencyCount(const QueryService& service) {
  const std::vector<obs::MetricSnapshot> snapshot = service.Stats();
  return obs::FindMetric(snapshot, "vblock_request_latency_seconds")
      ->histogram.count();
}

// Bit-level equality on everything the determinism contract covers
// (stats.seconds is explicitly excluded).
void ExpectSameResult(const SolverResult& got, const SolverResult& want) {
  EXPECT_EQ(got.blockers, want.blockers);
  EXPECT_EQ(got.stats.selection_trace, want.stats.selection_trace);
  EXPECT_EQ(got.stats.rounds_completed, want.stats.rounds_completed);
  EXPECT_EQ(got.stats.replacements, want.stats.replacements);
  EXPECT_EQ(got.stats.timed_out, want.stats.timed_out);
  ASSERT_EQ(got.stats.round_best_delta.size(),
            want.stats.round_best_delta.size());
  for (size_t i = 0; i < got.stats.round_best_delta.size(); ++i) {
    EXPECT_EQ(got.stats.round_best_delta[i], want.stats.round_best_delta[i]);
  }
}

// ---------------------------------------------------------- GraphRegistry --

TEST(GraphRegistryTest, AddGetRemoveRoundTrip) {
  GraphRegistry registry;
  auto snapshot = registry.Add("toy", TestGraph());
  EXPECT_EQ(snapshot->name, "toy");
  EXPECT_EQ(snapshot->epoch, 1u);
  EXPECT_EQ(registry.size(), 1u);

  auto got = registry.Get("toy");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->epoch, 1u);
  EXPECT_EQ((*got)->graph.NumVertices(), snapshot->graph.NumVertices());

  EXPECT_TRUE(registry.Remove("toy"));
  EXPECT_FALSE(registry.Remove("toy"));
  EXPECT_EQ(registry.Get("toy").status().code(), StatusCode::kNotFound);
  // The handle outlives removal (refcounted snapshot).
  EXPECT_GT(snapshot->graph.NumVertices(), 0u);
}

TEST(GraphRegistryTest, ReplacingANameBumpsTheEpoch) {
  GraphRegistry registry;
  auto first = registry.Add("g", TestGraph());
  auto second = registry.Add("g", TestGraph());
  EXPECT_LT(first->epoch, second->epoch);
  auto got = registry.Get("g");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->epoch, second->epoch);
}

TEST(GraphRegistryTest, LoadGeneratedUsesTheDatasetCatalog) {
  GraphRegistry registry;
  GraphLoadOptions options;
  options.prob = ProbAssignment::kWeightedCascade;
  auto snapshot =
      registry.LoadGenerated("ec", "EmailCore", 0.05, /*seed=*/3, options);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_GT((*snapshot)->graph.NumVertices(), 0u);

  EXPECT_EQ(registry.LoadGenerated("x", "NoSuchDataset", 0.05, 3)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry.LoadGenerated("x", "EmailCore", 0.0, 3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.List(), std::vector<std::string>({"ec"}));
}

// ------------------------------------------------- cold/warm bit-exactness --

TEST(QueryServiceTest, ColdAndWarmMatchStandaloneAcrossAlgorithmsAndModes) {
  GraphRegistry registry;
  auto snapshot = registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  VertexId base = 5;
  for (Algorithm algorithm :
       {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
    for (SampleReuse reuse : {SampleReuse::kPrune, SampleReuse::kResample}) {
      SCOPED_TRACE(std::string(AlgorithmName(algorithm)) + "/" +
                   (reuse == SampleReuse::kPrune ? "prune" : "resample"));
      // Distinct seed sets per combination keep the four cache keys
      // disjoint (AG and GR would otherwise share entries by design —
      // that sharing has its own test below).
      std::vector<VertexId> seeds = {base, base + 7};
      base += 20;
      SolverOptions standalone = FastOptions().defaults;
      standalone.algorithm = algorithm;
      standalone.budget = 6;
      standalone.sample_reuse = reuse;
      Result<SolverResult> want =
          SolveImin(snapshot->graph, seeds, standalone);
      ASSERT_TRUE(want.ok());

      IminRequest request = MakeRequest(seeds, 6, algorithm, reuse);
      Result<SolverResult> cold = service.SubmitAndWait(request);
      ASSERT_TRUE(cold.ok());
      Result<SolverResult> warm = service.SubmitAndWait(request);
      ASSERT_TRUE(warm.ok());

      ExpectSameResult(*cold, *want);
      ExpectSameResult(*warm, *want);
    }
  }

  // 8 engine-family solves over 4 distinct pool keys (mode × seed set ×
  // family-collapsed algorithm): every second request must be a warm hit.
  PoolCache::Stats cache = service.pool_cache().stats();
  EXPECT_EQ(cache.misses, 4u);
  EXPECT_EQ(cache.hits, 4u);
  EXPECT_EQ(cache.entries, 4u);
  EXPECT_GT(cache.bytes_in_use, 0u);
}

TEST(QueryServiceTest, AdvancedGreedyAndGreedyReplaceShareOnePoolEntry) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  Result<SolverResult> ag = service.SubmitAndWait(
      MakeRequest({3, 4}, 5, Algorithm::kAdvancedGreedy));
  ASSERT_TRUE(ag.ok());
  // Same seeds/θ/seed/reuse/sampler, different algorithm: the GR solve
  // must check the AG-built engine out of the cache.
  Result<SolverResult> gr = service.SubmitAndWait(
      MakeRequest({3, 4}, 5, Algorithm::kGreedyReplace));
  ASSERT_TRUE(gr.ok());

  PoolCache::Stats cache = service.pool_cache().stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.entries, 1u);
}

TEST(QueryServiceTest, SeedOrderDoesNotChangeTheResultOrTheCacheKey) {
  GraphRegistry registry;
  auto snapshot = registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  Result<SolverResult> a = service.SubmitAndWait(
      MakeRequest({9, 2, 17}, 4, Algorithm::kGreedyReplace));
  Result<SolverResult> b = service.SubmitAndWait(
      MakeRequest({17, 9, 2}, 4, Algorithm::kGreedyReplace));
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectSameResult(*a, *b);
  PoolCache::Stats cache = service.pool_cache().stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 1u);
}

TEST(QueryServiceTest, NonEngineAlgorithmsBypassThePoolCache) {
  GraphRegistry registry;
  auto snapshot = registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  for (Algorithm algorithm :
       {Algorithm::kRandom, Algorithm::kOutDegree, Algorithm::kPageRank,
        Algorithm::kBetweenness, Algorithm::kBaselineGreedy}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    SolverOptions standalone = FastOptions().defaults;
    standalone.algorithm = algorithm;
    standalone.budget = 3;
    Result<SolverResult> want = SolveImin(snapshot->graph, {1, 2}, standalone);
    ASSERT_TRUE(want.ok());
    Result<SolverResult> got =
        service.SubmitAndWait(MakeRequest({1, 2}, 3, algorithm));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->blockers, want->blockers);
  }
  PoolCache::Stats cache = service.pool_cache().stats();
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.inserts, 0u);
}

// --------------------------------------------------- concurrency / stress --

TEST(QueryServiceTest, ShuffledConcurrentSubmissionsAreDeterministic) {
  GraphRegistry registry;
  auto snapshot = registry.Add("g", TestGraph());

  // Mixed workload: AG/GR, both reuse modes, duplicate keys, budget sweep.
  struct Case {
    IminRequest request;
    SolverResult want;
  };
  std::vector<Case> cases;
  for (uint32_t budget : {2, 5, 8}) {
    for (Algorithm algorithm :
         {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
      for (SampleReuse reuse :
           {SampleReuse::kPrune, SampleReuse::kResample}) {
        IminRequest request =
            MakeRequest({1, 6, 30}, budget, algorithm, reuse);
        SolverOptions standalone = FastOptions().defaults;
        standalone.algorithm = algorithm;
        standalone.budget = budget;
        standalone.sample_reuse = reuse;
        Result<SolverResult> want =
            SolveImin(snapshot->graph, request.query.seeds, standalone);
        ASSERT_TRUE(want.ok());
        cases.push_back({std::move(request), std::move(*want)});
        // A duplicate of every case exercises coalescing/warm paths.
        cases.push_back(cases.back());
      }
    }
  }

  for (uint32_t num_threads : {1u, 2u, 8u}) {
    for (uint64_t shuffle_seed : {1u, 2u}) {
      SCOPED_TRACE("threads=" + std::to_string(num_threads) +
                   " shuffle=" + std::to_string(shuffle_seed));
      std::vector<size_t> order(cases.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::mt19937_64 rng(shuffle_seed);
      std::shuffle(order.begin(), order.end(), rng);

      QueryService service(&registry, FastOptions(num_threads));
      std::vector<std::pair<size_t, std::future<Result<SolverResult>>>>
          futures;
      futures.reserve(order.size());
      for (size_t index : order) {
        futures.emplace_back(index,
                             service.Submit(cases[index].request));
      }
      for (auto& [index, future] : futures) {
        Result<SolverResult> got = future.get();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectSameResult(*got, cases[index].want);
      }
    }
  }
}

// --------------------------------------------------------------- eviction --

TEST(QueryServiceTest, LruEvictionUnderTightByteBudget) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  auto solve = [&](VertexId seed) {
    Result<SolverResult> r = service.SubmitAndWait(
        MakeRequest({seed}, 3, Algorithm::kAdvancedGreedy));
    ASSERT_TRUE(r.ok());
  };

  // Learn the three entries' exact sizes under an unconstrained budget
  // (re-solving a key redraws the identical pool, so sizes reproduce).
  solve(1);
  const uint64_t b1 = service.pool_cache().stats().bytes_in_use;
  solve(2);
  solve(3);
  const uint64_t b3 = service.pool_cache().stats().bytes_in_use;
  ASSERT_GT(b1, 0u);
  ASSERT_EQ(service.pool_cache().EvictAll(), 3u);

  // Budget for exactly entries 2+3: inserting 1,2,3 again must evict the
  // LRU entry (1) and then stop — bytes land exactly on the budget.
  service.pool_cache().set_max_bytes(b3 - b1);
  solve(1);
  solve(2);
  solve(3);
  PoolCache::Stats stats = service.pool_cache().stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 4u);  // 3 from EvictAll + the LRU drop
  EXPECT_EQ(stats.bytes_in_use, b3 - b1);
  EXPECT_LE(stats.bytes_in_use, service.pool_cache().max_bytes());

  // The survivors serve warm; the evicted key would miss.
  solve(2);
  solve(3);
  stats = service.pool_cache().stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 6u);

  // A budget below a single entry empties the cache and every release
  // self-evicts.
  service.pool_cache().set_max_bytes(1);
  EXPECT_EQ(service.pool_cache().stats().entries, 0u);
  solve(5);
  stats = service.pool_cache().stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 7u);
  EXPECT_EQ(stats.evictions, 7u);
}

TEST(QueryServiceTest, EvictGraphDropsOnlyThatEpoch) {
  GraphRegistry registry;
  auto g1 = registry.Add("g", TestGraph());
  auto g2 = registry.Add("h", TestGraph());
  QueryService service(&registry, FastOptions());

  IminRequest request = MakeRequest({4}, 3, Algorithm::kAdvancedGreedy);
  ASSERT_TRUE(service.SubmitAndWait(request).ok());
  request.graph = "h";
  ASSERT_TRUE(service.SubmitAndWait(request).ok());
  EXPECT_EQ(service.pool_cache().stats().entries, 2u);

  EXPECT_EQ(service.pool_cache().EvictGraph(g1->epoch), 1u);
  EXPECT_EQ(service.pool_cache().stats().entries, 1u);
  // The surviving entry still serves h warm.
  ASSERT_TRUE(service.SubmitAndWait(request).ok());
  EXPECT_EQ(service.pool_cache().stats().hits, 1u);
}

// ------------------------------------------------------- epoch migration --

// A one-edge probability swap that provably keeps the unified grouped
// view's class table stable (docs/DESIGN.md §11): the touched edge is not
// the first appearance of its value, the value it takes first appears on
// an earlier edge, and neither endpoint is a seed (seed rows are rewritten
// or dropped by UnifySeeds, so seed-incident edges sit outside — or at the
// end of — the unified interning scan).
GraphDelta StableProbSwap(const Graph& g, const std::vector<VertexId>& seeds) {
  const std::vector<Edge> edges = g.CollectEdges();
  auto is_seed_edge = [&](const Edge& e) {
    return std::find(seeds.begin(), seeds.end(), e.source) != seeds.end() ||
           std::find(seeds.begin(), seeds.end(), e.target) != seeds.end();
  };
  std::map<double, size_t> first_pos;
  for (size_t i = 0; i < edges.size(); ++i) {
    if (!is_seed_edge(edges[i])) first_pos.try_emplace(edges[i].probability, i);
  }
  for (size_t i = edges.size(); i-- > 1;) {
    const Edge& e = edges[i];
    if (is_seed_edge(e) || first_pos[e.probability] == i) continue;
    for (size_t j = 0; j < i; ++j) {
      const Edge& o = edges[j];
      if (is_seed_edge(o) || o.probability == e.probability ||
          first_pos[o.probability] != j) {
        continue;
      }
      GraphDelta delta;
      delta.update_probabilities.push_back(
          {e.source, e.target, o.probability});
      return delta;
    }
  }
  ADD_FAILURE() << "no class-stable swap found in test graph";
  return {};
}

// First edge (in CSR scan order) touching no seed on either endpoint.
Edge FirstNonSeedEdge(const Graph& g, const std::vector<VertexId>& seeds) {
  for (const Edge& e : g.CollectEdges()) {
    if (std::find(seeds.begin(), seeds.end(), e.source) == seeds.end() &&
        std::find(seeds.begin(), seeds.end(), e.target) == seeds.end()) {
      return e;
    }
  }
  ADD_FAILURE() << "graph has only seed-incident edges";
  return {};
}

TEST(QueryServiceTest, MigrateEpochCarriesWarmPoolsBitExact) {
  GraphRegistry registry;
  auto before = registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  const std::vector<VertexId> seeds = {5, 12};
  const GraphDelta delta = StableProbSwap(before->graph, seeds);

  // One pool per combo (sampler and reuse are part of the cache key):
  // per-edge coin ignores the grouped view; the two skip pools exercise
  // the DeltaPatched path under both re-derivations.
  struct Combo {
    SamplerKind sampler;
    SampleReuse reuse;
    Algorithm algorithm;
  };
  const Combo combos[] = {
      {SamplerKind::kPerEdgeCoin, SampleReuse::kPrune,
       Algorithm::kAdvancedGreedy},
      {SamplerKind::kGeometricSkip, SampleReuse::kResample,
       Algorithm::kGreedyReplace},
      {SamplerKind::kGeometricSkip, SampleReuse::kPrune,
       Algorithm::kAdvancedGreedy},
  };
  auto make_request = [&](const Combo& combo) {
    IminRequest request = MakeRequest(seeds, 4, combo.algorithm, combo.reuse);
    request.query.sampler_kind = combo.sampler;
    return request;
  };
  for (const Combo& combo : combos) {
    ASSERT_TRUE(service.SubmitAndWait(make_request(combo)).ok());
  }
  ASSERT_EQ(service.pool_cache().stats().entries, 3u);

  Result<GraphRegistry::ApplyOutcome> applied = registry.Apply("g", delta);
  ASSERT_TRUE(applied.ok());
  QueryService::MigrationOutcome outcome =
      service.MigrateEpoch(applied->snapshot, applied->previous);
  EXPECT_EQ(outcome.migrated, 3u);
  EXPECT_EQ(outcome.dropped, 0u);

  // Every migrated pool serves the new epoch warm, and each warm answer is
  // bit-identical to a standalone cold solve on the mutated graph.
  const uint64_t hits_before = service.pool_cache().stats().hits;
  for (const Combo& combo : combos) {
    SCOPED_TRACE(static_cast<int>(combo.sampler));
    SolverOptions standalone = FastOptions().defaults;
    standalone.algorithm = combo.algorithm;
    standalone.budget = 4;
    standalone.sample_reuse = combo.reuse;
    standalone.sampler_kind = combo.sampler;
    Result<SolverResult> want =
        SolveImin(applied->snapshot->graph, seeds, standalone);
    ASSERT_TRUE(want.ok());
    Result<SolverResult> warm = service.SubmitAndWait(make_request(combo));
    ASSERT_TRUE(warm.ok());
    ExpectSameResult(*warm, *want);
  }
  PoolCache::Stats stats = service.pool_cache().stats();
  EXPECT_EQ(stats.hits - hits_before, 3u);
  EXPECT_EQ(stats.migrations, 3u);
  EXPECT_EQ(stats.evicted_stale, 0u);
}

TEST(QueryServiceTest, UnstableDeltaDropsGroupedPoolsButCarriesCoin) {
  GraphRegistry registry;
  auto before = registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  IminRequest skip = MakeRequest({5, 12}, 4, Algorithm::kAdvancedGreedy);
  skip.query.sampler_kind = SamplerKind::kGeometricSkip;
  IminRequest coin = MakeRequest({5, 12}, 4, Algorithm::kAdvancedGreedy);
  coin.query.sampler_kind = SamplerKind::kPerEdgeCoin;
  ASSERT_TRUE(service.SubmitAndWait(skip).ok());
  ASSERT_TRUE(service.SubmitAndWait(coin).ok());

  // A brand-new probability value re-ranks the grouped view's class table
  // (first-appearance interning), so the skip pool cannot be patched and
  // must drop; the coin pool never reads the view and always carries. The
  // probe edge must not touch a seed — seed-incident edges are rewritten
  // or dropped by unification, and a delta confined to them would leave
  // the unified graph untouched.
  GraphDelta delta;
  const Edge e = FirstNonSeedEdge(before->graph, {5, 12});
  delta.update_probabilities.push_back({e.source, e.target, 0.123456789});
  Result<GraphRegistry::ApplyOutcome> applied = registry.Apply("g", delta);
  ASSERT_TRUE(applied.ok());
  QueryService::MigrationOutcome outcome =
      service.MigrateEpoch(applied->snapshot, applied->previous);
  EXPECT_EQ(outcome.migrated, 1u);
  EXPECT_EQ(outcome.dropped, 1u);
  PoolCache::Stats stats = service.pool_cache().stats();
  EXPECT_EQ(stats.migrations, 2u);  // both left the old epoch via TakeEpoch
  EXPECT_EQ(stats.evicted_stale, 1u);
  EXPECT_EQ(stats.entries, 1u);

  // The dropped key rebuilds cold; both answers match standalone solves on
  // the mutated graph bit-for-bit.
  for (const IminRequest* request : {&skip, &coin}) {
    SolverOptions standalone = FastOptions().defaults;
    standalone.algorithm = Algorithm::kAdvancedGreedy;
    standalone.budget = 4;
    standalone.sample_reuse = *request->query.sample_reuse;
    standalone.sampler_kind = *request->query.sampler_kind;
    Result<SolverResult> want =
        SolveImin(applied->snapshot->graph, {5, 12}, standalone);
    ASSERT_TRUE(want.ok());
    Result<SolverResult> got = service.SubmitAndWait(*request);
    ASSERT_TRUE(got.ok());
    ExpectSameResult(*got, *want);
  }
  stats = service.pool_cache().stats();
  EXPECT_EQ(stats.hits, 1u);    // the carried coin pool
  EXPECT_EQ(stats.misses, 3u);  // two cold builds + the dropped skip key
}

TEST(QueryServiceTest, PoolLedgerBalancesAcrossMigrationsAndEvictions) {
  GraphRegistry registry;
  auto before = registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  // Every departure from the cache map is counted exactly once — warm
  // checkouts under `hits`, stale drops under `evictions`, epoch sweeps
  // under `migrations` — and every arrival under `inserts` (a checked-out
  // entry that comes back counts again). At quiescence the books balance.
  auto expect_ledger = [&](const char* where) {
    const PoolCache::Stats s = service.pool_cache().stats();
    EXPECT_EQ(s.entries, s.inserts - s.hits - s.evictions - s.migrations)
        << where;
  };

  IminRequest request = MakeRequest({5, 12}, 3, Algorithm::kAdvancedGreedy);
  request.query.sampler_kind = SamplerKind::kPerEdgeCoin;
  ASSERT_TRUE(service.SubmitAndWait(request).ok());
  ASSERT_TRUE(service.SubmitAndWait(request).ok());  // warm round trip
  expect_ledger("after solves");

  // Stable migration: the entry leaves under `migrations` and returns
  // under a fresh `inserts`.
  const GraphDelta stable = StableProbSwap(before->graph, {5, 12});
  Result<GraphRegistry::ApplyOutcome> applied = registry.Apply("g", stable);
  ASSERT_TRUE(applied.ok());
  service.MigrateEpoch(applied->snapshot, applied->previous);
  expect_ledger("after stable migration");

  // Unstable migration of a grouped pool: leaves under `migrations`, never
  // comes back (CountStaleDrop is informational only).
  IminRequest skip = MakeRequest({5, 12}, 3, Algorithm::kAdvancedGreedy);
  skip.query.sampler_kind = SamplerKind::kGeometricSkip;
  ASSERT_TRUE(service.SubmitAndWait(skip).ok());
  GraphDelta unstable;
  const Edge e = FirstNonSeedEdge(applied->snapshot->graph, {5, 12});
  unstable.update_probabilities.push_back({e.source, e.target, 0.987654321});
  Result<GraphRegistry::ApplyOutcome> applied2 =
      registry.Apply("g", unstable);
  ASSERT_TRUE(applied2.ok());
  service.MigrateEpoch(applied2->snapshot, applied2->previous);
  expect_ledger("after unstable migration");

  // Stale-epoch eviction and full eviction land under `evictions`.
  ASSERT_TRUE(service.SubmitAndWait(request).ok());
  service.pool_cache().EvictGraph(applied2->snapshot->epoch);
  expect_ledger("after EvictGraph");
  service.pool_cache().EvictAll();
  expect_ledger("after EvictAll");
  EXPECT_EQ(service.pool_cache().stats().entries, 0u);
}

// A build that hits its time limit leaves a timed-out engine behind; the
// service answers timed_out with no blockers and never caches it.
TEST(QueryServiceTest, TimedOutBuildIsNeverCached) {
  GraphRegistry registry;
  auto snapshot = registry.Add(
      "g", WithWeightedCascade(GenerateBarabasiAlbert(20000, 4, 3)));
  ASSERT_GT(snapshot->graph.OutDegree(0), 0u);
  QueryService service(&registry, FastOptions());
  ASSERT_TRUE(service
                  .SubmitAndWait(
                      MakeRequest({0}, 2, Algorithm::kAdvancedGreedy))
                  .ok());
  const PoolCache::Stats before = service.pool_cache().stats();
  ASSERT_EQ(before.entries, 1u);

  for (Algorithm algorithm :
       {Algorithm::kAdvancedGreedy, Algorithm::kGreedyReplace}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    IminRequest request = MakeRequest({0}, 2, algorithm);
    request.query.theta = 200000;  // a θ-loop far beyond the time limit
    request.query.time_limit_seconds = 0.05;
    Result<SolverResult> result = service.SubmitAndWait(request);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->stats.timed_out);
    EXPECT_TRUE(result->blockers.empty());
  }

  const PoolCache::Stats after = service.pool_cache().stats();
  EXPECT_EQ(after.misses, before.misses + 2);
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.entries,
            after.inserts - after.hits - after.evictions - after.migrations);
}

// GR on a sink seed set (no seed has an out-edge to a non-seed) answers
// the empty set without building a pool. Cold, nothing is cached; on a key
// an AG request already warmed, the entry is checked out and back in.
TEST(QueryServiceTest, GreedyReplaceOnSinkSeedsBuildsNothing) {
  GraphRegistry registry;
  auto snapshot = registry.Add("g", testing::StarGraph(12, 0.5));
  QueryService service(&registry, FastOptions());
  const std::vector<VertexId> sinks = {3, 7};

  SolverOptions standalone = FastOptions().defaults;
  standalone.algorithm = Algorithm::kGreedyReplace;
  standalone.budget = 2;
  standalone.sample_reuse = SampleReuse::kPrune;
  Result<SolverResult> want = SolveImin(snapshot->graph, sinks, standalone);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(want->blockers.empty());

  Result<SolverResult> cold =
      service.SubmitAndWait(MakeRequest(sinks, 2, Algorithm::kGreedyReplace));
  ASSERT_TRUE(cold.ok());
  ExpectSameResult(*cold, *want);
  EXPECT_EQ(service.pool_cache().stats().inserts, 0u);
  EXPECT_EQ(service.pool_cache().stats().entries, 0u);

  ASSERT_TRUE(service
                  .SubmitAndWait(
                      MakeRequest(sinks, 2, Algorithm::kAdvancedGreedy))
                  .ok());
  const PoolCache::Stats warmed = service.pool_cache().stats();
  ASSERT_EQ(warmed.entries, 1u);

  Result<SolverResult> warm =
      service.SubmitAndWait(MakeRequest(sinks, 2, Algorithm::kGreedyReplace));
  ASSERT_TRUE(warm.ok());
  ExpectSameResult(*warm, *want);
  const PoolCache::Stats after = service.pool_cache().stats();
  EXPECT_EQ(after.hits, warmed.hits + 1);
  EXPECT_EQ(after.entries, 1u);
}

// ----------------------------------------------- admission + deadlines ----

TEST(QueryServiceTest, ExpiredDeadlineReturnsTypedTimeout) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  IminRequest request = MakeRequest({1}, 3, Algorithm::kAdvancedGreedy);
  request.deadline_seconds = 1e-9;  // expired by the time a worker picks it
  Result<SolverResult> result = service.SubmitAndWait(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Cell(service, "vblock_requests_deadline_expired_total"), 1);
  // The future path still completed the computation.
  EXPECT_EQ(Cell(service, "vblock_requests_completed_total"), 1);
}

TEST(QueryServiceTest, QueueFullRejectsWithResourceExhausted) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  ServiceOptions options = FastOptions(/*num_threads=*/1);
  options.max_queue = 2;
  QueryService service(&registry, options);

  // Park the only worker so admitted requests stay queued.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  service.scheduler().Submit([opened] { opened.wait(); });

  IminRequest request = MakeRequest({1}, 3, Algorithm::kOutDegree);
  auto first = service.Submit(request);
  request.query.seeds = {2};  // distinct keys: no coalescing
  auto second = service.Submit(request);
  EXPECT_EQ(Cell(service, "vblock_queue_depth"), 2);

  request.query.seeds = {3};
  Result<SolverResult> rejected = service.Submit(request).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Cell(service, "vblock_requests_rejected_total"), 1);

  gate.set_value();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  EXPECT_EQ(Cell(service, "vblock_queue_depth"), 0);
}

TEST(QueryServiceTest, InFlightCapRejectsBeforeQueueing) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  ServiceOptions options = FastOptions();
  options.max_in_flight = 0;
  QueryService service(&registry, options);

  Result<SolverResult> result =
      service.SubmitAndWait(MakeRequest({1}, 3, Algorithm::kOutDegree));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(QueryServiceTest, IdenticalConcurrentRequestsCoalesce) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions(/*num_threads=*/1));

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  service.scheduler().Submit([opened] { opened.wait(); });

  IminRequest request = MakeRequest({8, 2}, 4, Algorithm::kGreedyReplace);
  auto a = service.Submit(request);
  auto b = service.Submit(request);
  auto c = service.Submit(request);
  EXPECT_EQ(Cell(service, "vblock_requests_coalesced_total"), 2);
  // One computation, three waiters.
  EXPECT_EQ(Cell(service, "vblock_queue_depth"), 1);

  gate.set_value();
  Result<SolverResult> ra = a.get(), rb = b.get(), rc = c.get();
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  ExpectSameResult(*rb, *ra);
  ExpectSameResult(*rc, *ra);
  // One computation: one cache miss, one insert, zero hits; but one
  // latency sample per request.
  PoolCache::Stats cache = service.pool_cache().stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(Cell(service, "vblock_requests_completed_total"), 1);
  EXPECT_EQ(LatencyCount(service), 3u);

  // Deadlined requests never coalesce — each owns its submission clock.
  std::promise<void> gate2;
  std::shared_future<void> opened2 = gate2.get_future().share();
  service.scheduler().Submit([opened2] { opened2.wait(); });
  request.deadline_seconds = 60.0;
  auto d1 = service.Submit(request);
  auto d2 = service.Submit(request);
  EXPECT_EQ(Cell(service, "vblock_requests_coalesced_total"), 2);  // same
  EXPECT_EQ(Cell(service, "vblock_queue_depth"), 2);
  gate2.set_value();
  EXPECT_TRUE(d1.get().ok());
  EXPECT_TRUE(d2.get().ok());
  EXPECT_EQ(Cell(service, "vblock_requests_completed_total"), 3);
}

// -------------------------------------------------------------- validation --

TEST(QueryServiceTest, TypedValidationErrors) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  IminRequest request = MakeRequest({1}, 3, Algorithm::kGreedyReplace);
  request.graph = "nope";
  EXPECT_EQ(service.SubmitAndWait(request).status().code(),
            StatusCode::kNotFound);

  request.graph = "g";
  request.query.seeds = {100000};
  EXPECT_EQ(service.SubmitAndWait(request).status().code(),
            StatusCode::kOutOfRange);

  request.query.seeds = {1, 1};
  EXPECT_EQ(service.SubmitAndWait(request).status().code(),
            StatusCode::kInvalidArgument);

  request.query.seeds = {1};
  request.query.theta = 0;
  EXPECT_EQ(service.SubmitAndWait(request).status().code(),
            StatusCode::kInvalidArgument);

  // BG with zero Monte-Carlo rounds would abort a worker thread.
  request.query.theta = std::nullopt;
  request.query.algorithm = Algorithm::kBaselineGreedy;
  request.query.mc_rounds = 0;
  EXPECT_EQ(service.SubmitAndWait(request).status().code(),
            StatusCode::kInvalidArgument);
  request.query.algorithm = Algorithm::kGreedyReplace;
  request.query.mc_rounds = std::nullopt;

  // Non-finite deadline / time limit must be rejected before touching the
  // ordered dedup key (NaN would break its strict weak ordering).
  request.deadline_seconds = std::nan("");
  EXPECT_EQ(service.SubmitAndWait(request).status().code(),
            StatusCode::kInvalidArgument);
  request.deadline_seconds = 0;
  request.query.time_limit_seconds =
      std::numeric_limits<double>::infinity();
  EXPECT_EQ(service.SubmitAndWait(request).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(Cell(service, "vblock_requests_invalid_total"), 7);
  EXPECT_EQ(Cell(service, "vblock_requests_completed_total"), 0);
}

TEST(QueryServiceTest, EvaluateMatchesDirectEvaluateSpread) {
  GraphRegistry registry;
  auto snapshot = registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  EvalRequest request;
  request.graph = "g";
  request.seeds = {0, 1};
  request.blockers = {5, 9};
  request.options.mc_rounds = 500;
  request.options.seed = 42;
  Result<double> got = service.Evaluate(request);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, EvaluateSpread(snapshot->graph, request.seeds,
                                 request.blockers, request.options));

  request.graph = "nope";
  EXPECT_EQ(service.Evaluate(request).status().code(), StatusCode::kNotFound);
  request.graph = "g";
  request.blockers = {100000};
  EXPECT_EQ(service.Evaluate(request).status().code(),
            StatusCode::kOutOfRange);
  request.blockers = {5, 9};
  request.options.mc_rounds = 0;
  EXPECT_EQ(service.Evaluate(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryServiceTest, StatsSnapshotIsCoherent) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service
                    .SubmitAndWait(
                        MakeRequest({4, 5}, 4, Algorithm::kAdvancedGreedy))
                    .ok());
  }
  const std::vector<obs::MetricSnapshot> snapshot = service.Stats();
  auto value = [&snapshot](const char* name) {
    return obs::FindMetric(snapshot, name)->value;
  };
  EXPECT_EQ(value("vblock_requests_submitted_total"), 3);
  EXPECT_EQ(value("vblock_requests_completed_total"), 3);
  EXPECT_EQ(value("vblock_queue_depth"), 0);
  EXPECT_EQ(value("vblock_in_flight"), 0);
  EXPECT_GT(value("vblock_uptime_seconds"), 0.0);
  EXPECT_EQ(value("vblock_pool_hits_total"), 2);
  const Histogram& latency =
      obs::FindMetric(snapshot, "vblock_request_latency_seconds")->histogram;
  EXPECT_EQ(latency.count(), 3u);
  EXPECT_GT(latency.mean(), 0.0);
  EXPECT_GE(latency.max(), latency.Quantile(0.50));
}

// ---------------------------------------------------------------- protocol --

TEST(ProtocolTest, ParseSolveRoundTrip) {
  Result<Command> cmd = ParseCommand(
      "solve web seeds 3,1,2 budget 7 alg ag theta 500 seed 99 "
      "reuse prune sampler coin timelimit 2.5 deadline 10");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd->kind, Command::Kind::kSolve);
  EXPECT_EQ(cmd->request.graph, "web");
  EXPECT_EQ(cmd->request.query.seeds, std::vector<VertexId>({3, 1, 2}));
  EXPECT_EQ(cmd->request.query.budget, 7u);
  EXPECT_EQ(cmd->request.query.algorithm, Algorithm::kAdvancedGreedy);
  EXPECT_EQ(cmd->request.query.theta, std::optional<uint32_t>(500));
  EXPECT_EQ(cmd->request.query.seed, std::optional<uint64_t>(99));
  EXPECT_EQ(cmd->request.query.sample_reuse,
            std::optional<SampleReuse>(SampleReuse::kPrune));
  EXPECT_EQ(cmd->request.query.sampler_kind,
            std::optional<SamplerKind>(SamplerKind::kPerEdgeCoin));
  EXPECT_EQ(cmd->request.query.time_limit_seconds,
            std::optional<double>(2.5));
  EXPECT_EQ(cmd->request.deadline_seconds, 10.0);
}

TEST(ProtocolTest, ParseLoadAndEvalAndEvict) {
  Result<Command> load =
      ParseCommand("LOAD ec GEN EmailCore SCALE 0.1 SEED 5 MODEL wc");
  ASSERT_TRUE(load.ok());
  EXPECT_EQ(load->kind, Command::Kind::kLoadGen);
  EXPECT_EQ(load->name, "ec");
  EXPECT_EQ(load->source, "EmailCore");
  EXPECT_DOUBLE_EQ(load->scale, 0.1);
  EXPECT_EQ(load->gen_seed, 5u);
  EXPECT_EQ(load->load.prob, ProbAssignment::kWeightedCascade);

  Result<Command> file =
      ParseCommand("LOAD web FILE /tmp/edges.txt UNDIRECTED PROB 0.05");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->kind, Command::Kind::kLoadFile);
  EXPECT_TRUE(file->load.read.undirected);
  EXPECT_DOUBLE_EQ(file->load.read.default_probability, 0.05);

  Result<Command> eval =
      ParseCommand("EVAL ec SEEDS 1,2 BLOCKERS - ROUNDS 1000 SEED 3");
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->kind, Command::Kind::kEval);
  EXPECT_TRUE(eval->blockers.empty());
  EXPECT_EQ(eval->eval.mc_rounds, 1000u);

  Result<Command> evict = ParseCommand("EVICT GRAPH ec");
  ASSERT_TRUE(evict.ok());
  EXPECT_EQ(evict->kind, Command::Kind::kEvictGraph);
  EXPECT_EQ(evict->name, "ec");
  EXPECT_EQ(ParseCommand("EVICT POOLS")->kind, Command::Kind::kEvictPools);
  EXPECT_EQ(ParseCommand("QUIT")->kind, Command::Kind::kQuit);
  EXPECT_EQ(ParseCommand("STATS")->kind, Command::Kind::kStats);
}

TEST(ProtocolTest, ParseUpdateRoundTrip) {
  Result<Command> cmd = ParseCommand(
      "UPDATE g ADD 1,2,0.5;3,4,0.25 DEL 5,6;7,8 PROB 9,10,0.125 "
      "ADDV 2 DELV 11,12");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd->kind, Command::Kind::kUpdate);
  EXPECT_EQ(cmd->name, "g");
  ASSERT_EQ(cmd->delta.insert_edges.size(), 2u);
  EXPECT_EQ(cmd->delta.insert_edges[0].source, 1u);
  EXPECT_EQ(cmd->delta.insert_edges[0].target, 2u);
  EXPECT_DOUBLE_EQ(cmd->delta.insert_edges[0].probability, 0.5);
  EXPECT_DOUBLE_EQ(cmd->delta.insert_edges[1].probability, 0.25);
  ASSERT_EQ(cmd->delta.delete_edges.size(), 2u);
  EXPECT_EQ(cmd->delta.delete_edges[1].source, 7u);
  EXPECT_EQ(cmd->delta.delete_edges[1].target, 8u);
  ASSERT_EQ(cmd->delta.update_probabilities.size(), 1u);
  EXPECT_DOUBLE_EQ(cmd->delta.update_probabilities[0].probability, 0.125);
  EXPECT_EQ(cmd->delta.add_vertices, 2u);
  EXPECT_EQ(cmd->delta.delete_vertices, std::vector<VertexId>({11, 12}));

  // Serialize(parse(s)) is a fixed point for the canonical form.
  const std::string line = SerializeCommand(*cmd);
  Result<Command> reparsed = ParseCommand(line);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(SerializeCommand(*reparsed), line);
}

TEST(ProtocolTest, ParserRejectsMalformedLines) {
  for (const char* line : {
           "",                                  // empty
           "FROB x",                            // unknown command
           "LOAD g",                            // missing form
           "LOAD g ZIP source",                 // unknown form
           "LOAD g GEN ec SCALE",               // flag without value
           "LOAD g GEN ec SCALE abc",           // malformed value
           "SOLVE g",                           // missing SEEDS
           "SOLVE g SEEDS",                     // missing list
           "SOLVE g SEEDS 1,x",                 // malformed list
           "SOLVE g SEEDS 1 WAT 3",             // unknown flag
           "SOLVE g SEEDS 1 ALG zz",            // unknown algorithm
           "SOLVE g SEEDS 1 REUSE maybe",       // unknown mode
           "SOLVE g SEEDS 1 RELABEL bfs",       // removed flag
           "SOLVE g SEEDS 1 BUDGET 4294967297", // > uint32: no truncation
           "SOLVE g SEEDS 1 THETA 99999999999", // > uint32: no truncation
           "SOLVE g SEEDS 1 DEADLINE nan",      // NaN breaks dedup ordering
           "SOLVE g SEEDS 1 DEADLINE inf",      // must be finite
           "SOLVE g SEEDS 1 TIMELIMIT -1",      // negative seconds
           "SOLVE g SEEDS 1 THETA 9 THETA 9",   // duplicate flag
           "LOAD g GEN ec SEED 1 SEED 2",       // duplicate flag
           "EVAL g SEEDS 1 BLOCKERS - SEED 1 SEED 2",  // duplicate flag
           "EVAL g SEEDS 1",                    // missing BLOCKERS
           "EVAL g SEEDS 1 BLOCKERS 2 ROUNDS 4294967297",  // > uint32
           "EVICT",                             // missing subcommand
           "EVICT GRAPH",                       // missing name
           "STATS now",                         // stray argument
           "UPDATE",                            // missing name
           "UPDATE g ADD",                      // flag without value
           "UPDATE g ADD 1,2",                  // triple missing p
           "UPDATE g ADD 1,2,x",                // malformed probability
           "UPDATE g ADD 1,2,inf",              // p must be finite
           "UPDATE g DEL 1",                    // pair missing target
           "UPDATE g DEL 1,2,0.5",              // pair with stray field
           "UPDATE g ADDV 0",                   // zero vertex count
           "UPDATE g ADDV -3",                  // negative vertex count
           "UPDATE g DELV",                     // flag without value
           "UPDATE g FROB 1",                   // unknown flag
           "UPDATE g ADDV 1 ADDV 1",            // duplicate flag
       }) {
    SCOPED_TRACE(line);
    Result<Command> cmd = ParseCommand(line);
    ASSERT_FALSE(cmd.ok());
    EXPECT_EQ(cmd.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ProtocolTest, ZeroRoundRequestsFailTypedAndSessionServesOn) {
  ServiceSession session(FastOptions());
  ASSERT_TRUE(session.Execute("LOAD g GEN EmailCore SCALE 0.05 SEED 7")
                  .starts_with("OK graph=g"));

  std::string bg = session.Execute("SOLVE g SEEDS 1 BUDGET 2 ALG bg MC 0");
  EXPECT_TRUE(bg.starts_with("ERR InvalidArgument")) << bg;
  std::string eval = session.Execute("EVAL g SEEDS 1 BLOCKERS - ROUNDS 0");
  EXPECT_TRUE(eval.starts_with("ERR InvalidArgument")) << eval;

  std::string solve = session.Execute("SOLVE g SEEDS 1 BUDGET 2 ALG bg MC 20");
  EXPECT_TRUE(solve.starts_with("OK blockers=")) << solve;
  eval = session.Execute("EVAL g SEEDS 1 BLOCKERS - ROUNDS 100");
  EXPECT_TRUE(eval.starts_with("OK spread=")) << eval;
}

// Address-space limits do not mix with sanitizer shadow memory.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

// A θ or a vertex count far beyond memory fails its own line with a typed
// error and leaves the server serving: nothing cached, no new epoch, the
// pool ledger balanced. Runs in a forked child under a 2 GiB address-space
// limit, so the failed allocations are refused at once.
TEST(ProtocolTest, OutOfMemoryLinesFailTypedAndSessionServesOn) {
  if (kSanitized) GTEST_SKIP() << "RLIMIT_AS breaks sanitizer runtimes";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    const rlimit limit{2ull << 30, 2ull << 30};
    if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(2);
    GraphRegistry registry;
    QueryService service(&registry, FastOptions());
    ServiceSession session(&registry, &service);
    std::string out =
        session.Execute("LOAD g GEN EmailCore SCALE 0.1 SEED 7 MODEL wc") +
        "\n";
    out += session.Execute(
               "SOLVE g SEEDS 1 BUDGET 2 ALG ag THETA 100000000") + "\n";
    out += session.Execute("UPDATE g ADDV 1000000000") + "\n";
    const PoolCache::Stats s = service.pool_cache().stats();
    out += "epoch=" + std::to_string((*registry.Get("g"))->epoch) +
           " entries=" + std::to_string(s.entries) + " balanced=" +
           std::to_string(s.entries ==
                          s.inserts - s.hits - s.evictions - s.migrations) +
           "\n";
    out += session.Execute("SOLVE g SEEDS 1 BUDGET 2 ALG ag THETA 100") + "\n";
    const bool written =
        ::write(fds[1], out.data(), out.size()) ==
        static_cast<ssize_t>(out.size());
    ::_exit(written ? 0 : 3);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t got; (got = ::read(fds[0], buf, sizeof(buf))) > 0;) {
    out.append(buf, static_cast<size_t>(got));
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child died by signal " << WTERMSIG(status)
                                 << "; output so far:\n" << out;
  ASSERT_EQ(WEXITSTATUS(status), 0) << out;

  std::istringstream lines(out);
  std::string line;
  std::getline(lines, line);
  EXPECT_TRUE(line.starts_with("OK graph=g ")) << line;
  std::getline(lines, line);
  EXPECT_TRUE(line.starts_with("ERR ResourceExhausted")) << line;
  std::getline(lines, line);
  EXPECT_TRUE(line.starts_with("ERR ResourceExhausted")) << line;
  std::getline(lines, line);
  EXPECT_EQ(line, "epoch=1 entries=0 balanced=1");
  std::getline(lines, line);
  EXPECT_TRUE(line.starts_with("OK blockers=")) << line;
}

TEST(ProtocolTest, SessionEndToEnd) {
  ServiceSession session(FastOptions());

  // Blank lines and comments produce no response.
  EXPECT_EQ(session.Execute(""), "");
  EXPECT_EQ(session.Execute("   "), "");
  EXPECT_EQ(session.Execute("# a comment"), "");

  std::string load = session.Execute(
      "LOAD ec GEN EmailCore SCALE 0.05 SEED 7 MODEL wc");
  ASSERT_TRUE(load.starts_with("OK graph=ec n=")) << load;

  std::string cold = session.Execute(
      "SOLVE ec SEEDS 1,2 BUDGET 4 ALG gr THETA 200 REUSE prune");
  ASSERT_TRUE(cold.starts_with("OK blockers=")) << cold;
  EXPECT_NE(cold.find("pool=cold"), std::string::npos) << cold;

  std::string warm = session.Execute(
      "SOLVE ec SEEDS 1,2 BUDGET 4 ALG gr THETA 200 REUSE prune");
  EXPECT_NE(warm.find("pool=warm"), std::string::npos) << warm;
  // Identical answers, cold or warm (the response embeds the blockers).
  EXPECT_EQ(cold.substr(0, cold.find(" pool=")),
            warm.substr(0, warm.find(" pool=")));

  std::string eval = session.Execute("EVAL ec SEEDS 1,2 BLOCKERS - ROUNDS 500");
  EXPECT_TRUE(eval.starts_with("OK spread=")) << eval;

  std::string stats = session.Execute("STATS");
  EXPECT_NE(stats.find("graphs=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("completed=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("pool_hits=1"), std::string::npos) << stats;

  EXPECT_EQ(session.Execute("EVICT POOLS"), "OK evicted=1");
  std::string gone = session.Execute("SOLVE missing SEEDS 1");
  EXPECT_TRUE(gone.starts_with("ERR NotFound")) << gone;

  std::string evict = session.Execute("EVICT GRAPH ec");
  EXPECT_TRUE(evict.starts_with("OK graph=ec")) << evict;
  EXPECT_TRUE(
      session.Execute("EVAL ec SEEDS 1 BLOCKERS -").starts_with("ERR NotFound"));

  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.Execute("QUIT"), "OK bye");
  EXPECT_TRUE(session.done());
}

// pool= is this request's own cache outcome, carried on its result: a
// heuristic SOLVE that completes right after another session's warm hit
// still reports pool=none.
TEST(ProtocolTest, PoolFieldReportsTheRequestsOwnOutcome) {
  GraphRegistry registry;
  registry.Add("g", TestGraph());
  QueryService service(&registry, FastOptions(/*num_threads=*/1));
  ServiceSession first(&registry, &service);
  ServiceSession second(&registry, &service);
  const std::string solve = "SOLVE g SEEDS 1,2 BUDGET 3 ALG ag THETA 200";
  const std::string cold = first.Execute(solve);
  ASSERT_NE(cold.find("pool=cold"), std::string::npos) << cold;

  // Park the only worker so both SOLVEs queue, then run back to back: the
  // warm AG first, the OD heuristic second.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  service.scheduler().Submit([opened] { opened.wait(); });
  std::promise<std::string> warm_done, od_done;
  std::future<std::string> warm = warm_done.get_future();
  std::future<std::string> od = od_done.get_future();
  first.ExecuteAsync(solve, [&warm_done](std::string response) {
    warm_done.set_value(std::move(response));
  });
  second.ExecuteAsync("SOLVE g SEEDS 1,2 BUDGET 3 ALG od",
                      [&od_done](std::string response) {
                        od_done.set_value(std::move(response));
                      });
  gate.set_value();
  const std::string warm_line = warm.get();
  const std::string od_line = od.get();
  EXPECT_NE(warm_line.find("pool=warm"), std::string::npos) << warm_line;
  EXPECT_NE(od_line.find("pool=none"), std::string::npos) << od_line;
}

TEST(ProtocolTest, UpdateSessionMigratesAndEvictsStalePools) {
  ServiceSession session(FastOptions());
  ASSERT_TRUE(session.Execute("LOAD ec GEN EmailCore SCALE 0.05 SEED 7 MODEL wc")
                  .starts_with("OK graph=ec"));

  // Coin-sampler pools migrate across any epoch, so the repeated SOLVE
  // after UPDATE is still a warm hit against the mutated graph.
  std::string cold = session.Execute(
      "SOLVE ec SEEDS 1,2 BUDGET 3 ALG ag THETA 200 SEED 9 SAMPLER coin");
  ASSERT_TRUE(cold.starts_with("OK blockers=")) << cold;
  std::string update = session.Execute("UPDATE ec PROB 1,2,0.5");
  ASSERT_TRUE(update.starts_with("OK graph=ec epoch=")) << update;
  EXPECT_NE(update.find(" migrated=1 rebuilt=0"), std::string::npos) << update;
  std::string warm = session.Execute(
      "SOLVE ec SEEDS 1,2 BUDGET 3 ALG ag THETA 200 SEED 9 SAMPLER coin");
  EXPECT_NE(warm.find("pool=warm"), std::string::npos) << warm;

  // Typed errors: unknown graph, delta inconsistent with the graph.
  EXPECT_TRUE(session.Execute("UPDATE nope PROB 1,2,0.5")
                  .starts_with("ERR NotFound"));
  EXPECT_TRUE(session.Execute("UPDATE ec DEL 1,999999")
                  .starts_with("ERR InvalidArgument"));

  // A skip-sampler pool hit by a class-destabilizing value (a brand-new
  // probability on a non-seed-incident edge) is dropped (rebuilt=1) and
  // surfaces in STATS as pool_evicted_stale; the coin pool still carries.
  ASSERT_TRUE(
      session
          .Execute("SOLVE ec SEEDS 1,2 BUDGET 3 ALG ag THETA 200 SEED 9 "
                   "SAMPLER skip")
          .starts_with("OK blockers="));
  std::string unstable = session.Execute("UPDATE ec PROB 3,4,0.123456789");
  ASSERT_TRUE(unstable.starts_with("OK graph=ec epoch=")) << unstable;
  EXPECT_NE(unstable.find(" migrated=1 rebuilt=1"), std::string::npos)
      << unstable;
  std::string stats = session.Execute("STATS");
  EXPECT_NE(stats.find("pool_migrations=3"), std::string::npos) << stats;
  EXPECT_NE(stats.find("pool_evicted_stale=1"), std::string::npos) << stats;

  // A replacing LOAD evicts the displaced epoch's pools (the carried coin
  // entry) outright instead of migrating them.
  ASSERT_TRUE(session.Execute("LOAD ec GEN EmailCore SCALE 0.05 SEED 7 MODEL wc")
                  .starts_with("OK graph=ec"));
  stats = session.Execute("STATS");
  EXPECT_NE(stats.find("pool_evicted_stale=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("pool_entries=0"), std::string::npos) << stats;
}

}  // namespace
}  // namespace vblock
