// Micro-benchmark for the query service's warm-pool path: the same AG
// solve issued repeatedly against a QueryService, (a) cold — the pool
// cache is evicted before every request, so each one pays the full
// θ-sample build — versus (b) warm — the first request builds, every
// later one checks the restored engine out of the PoolCache and skips the
// build. Emits a single JSON object on stdout for CI to archive.
//
// Acceptance target (ISSUE 5): the repeated SOLVE is served from the
// cache (pool_hits == warm iterations), returns bit-identical blockers to
// the cold path, and warm QPS ≥ 5× cold QPS (advisory in CI).
//
// A second section drives the same service through the TCP front-end
// (net/tcp_server.h) with the closed-loop load generator at
// 1/16/256/1024 concurrent connections, reporting QPS and latency
// percentiles per tier (advisory in CI), plus the pool hits and misses
// the tiers recorded: the 8 pre-warmed keys fit the cache budget, so
// pool_misses must be 0.
//
// Environment knobs (defaults are the tiny synthetic config):
//   VBLOCK_SERVICE_BENCH_N        vertices            (default 10000)
//   VBLOCK_SERVICE_BENCH_THETA    samples θ           (default 2000)
//   VBLOCK_SERVICE_BENCH_BUDGET   blockers per query  (default 5)
//   VBLOCK_SERVICE_BENCH_ITERS    timed iterations    (default 20)
//   VBLOCK_SERVICE_BENCH_REUSE    prune | resample    (default prune)
//   VBLOCK_SERVICE_BENCH_TCP_SECONDS    window per tier     (default 2)
//   VBLOCK_SERVICE_BENCH_TCP_THREADS    service workers     (default 4)
//   VBLOCK_SERVICE_BENCH_TCP_MAX_CONNS  cap on the tier list (default 1024)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/timer.h"
#include "gen/generators.h"
#include "net/line_client.h"
#include "net/load_gen.h"
#include "net/tcp_server.h"
#include "prob/probability_models.h"
#include "service/graph_registry.h"
#include "service/query_service.h"

using namespace vblock;
using vblock::bench::EnvOr;

int main() {
  const uint32_t n = EnvOr("VBLOCK_SERVICE_BENCH_N", 10000);
  const uint32_t theta = EnvOr("VBLOCK_SERVICE_BENCH_THETA", 2000);
  const uint32_t budget = EnvOr("VBLOCK_SERVICE_BENCH_BUDGET", 5);
  const uint32_t iters = EnvOr("VBLOCK_SERVICE_BENCH_ITERS", 20);
  const char* reuse_env = std::getenv("VBLOCK_SERVICE_BENCH_REUSE");
  const SampleReuse reuse =
      (reuse_env && std::strcmp(reuse_env, "resample") == 0)
          ? SampleReuse::kResample
          : SampleReuse::kPrune;
  const uint64_t seed = 20230227;

  GraphRegistry registry;
  registry.Add("bench", WithWeightedCascade(GenerateBarabasiAlbert(n, 4,
                                                                   seed)));

  ServiceOptions options;
  options.num_threads = 1;  // measure per-request latency, not parallelism
  options.defaults.theta = theta;
  options.defaults.seed = seed;
  options.defaults.sample_reuse = reuse;
  QueryService service(&registry, options);

  IminRequest request;
  request.graph = "bench";
  request.query.seeds = {0};
  request.query.budget = budget;
  request.query.algorithm = Algorithm::kAdvancedGreedy;

  // Reference result + warm-up (also populates the cache once).
  Result<SolverResult> reference = service.SubmitAndWait(request);
  VBLOCK_CHECK(reference.ok());

  // Cold arm: evict before every request → every iteration re-draws the
  // full θ-sample pool.
  bool identical = true;
  Timer cold_timer;
  for (uint32_t i = 0; i < iters; ++i) {
    service.pool_cache().EvictAll();
    Result<SolverResult> r = service.SubmitAndWait(request);
    VBLOCK_CHECK(r.ok());
    identical = identical && r->blockers == reference->blockers;
  }
  const double cold_seconds = cold_timer.ElapsedSeconds();

  // Warm arm: the cache entry survives between requests.
  service.pool_cache().EvictAll();
  VBLOCK_CHECK(service.SubmitAndWait(request).ok());  // rebuild once
  const uint64_t hits_before = service.pool_cache().stats().hits;
  Timer warm_timer;
  for (uint32_t i = 0; i < iters; ++i) {
    Result<SolverResult> r = service.SubmitAndWait(request);
    VBLOCK_CHECK(r.ok());
    identical = identical && r->blockers == reference->blockers;
  }
  const double warm_seconds = warm_timer.ElapsedSeconds();
  const uint64_t warm_hits = service.pool_cache().stats().hits - hits_before;

  const bool all_warm_hits = warm_hits == iters;
  const double cold_qps = cold_seconds > 0 ? iters / cold_seconds : 0.0;
  const double warm_qps = warm_seconds > 0 ? iters / warm_seconds : 0.0;
  const double speedup = cold_seconds > 0 && warm_seconds > 0
                             ? cold_seconds / warm_seconds
                             : 0.0;

  // ------------------------------------------------ TCP front-end tiers --
  // A separate service instance (multiple workers) behind a
  // real TcpServer, hammered by the closed-loop generator. The request mix
  // is 8 distinct warm pool keys (SEED rotates), pre-warmed so every tier
  // measures the steady state rather than the one-off θ-sample builds.
  const uint32_t tcp_seconds = EnvOr("VBLOCK_SERVICE_BENCH_TCP_SECONDS", 2);
  const uint32_t tcp_threads = EnvOr("VBLOCK_SERVICE_BENCH_TCP_THREADS", 4);
  const uint32_t tcp_max_conns =
      EnvOr("VBLOCK_SERVICE_BENCH_TCP_MAX_CONNS", 1024);
  TryRaiseFdLimit(static_cast<uint64_t>(tcp_max_conns) * 2 + 256);

  ServiceOptions tcp_options = options;
  tcp_options.num_threads = tcp_threads;
  QueryService tcp_service(&registry, tcp_options);

  std::vector<std::string> request_lines;
  for (uint64_t s = 0; s < 8; ++s) {
    IminRequest warm = request;
    warm.query.seed = seed + s;
    VBLOCK_CHECK(tcp_service.SubmitAndWait(warm).ok());  // pre-warm
    char line[128];
    std::snprintf(line, sizeof(line),
                  "SOLVE bench SEEDS 0 BUDGET %u ALG ag SEED %llu", budget,
                  static_cast<unsigned long long>(seed + s));
    request_lines.push_back(line);
  }

  const PoolCache::Stats tcp_warmed = tcp_service.pool_cache().stats();

  TcpServerOptions server_options;
  server_options.max_connections = tcp_max_conns + 64;
  TcpServer server(&registry, &tcp_service, server_options);
  VBLOCK_CHECK(server.Start().ok());
  std::thread server_thread([&server] { server.Run(); });

  struct TierResult {
    uint32_t connections = 0;
    LoadGenReport report;
  };
  std::vector<TierResult> tiers;
  for (const uint32_t connections : {1u, 16u, 256u, 1024u}) {
    if (connections > tcp_max_conns) continue;
    LoadGenOptions load;
    load.port = server.port();
    load.connections = connections;
    load.duration_seconds = tcp_seconds;
    load.request_lines = request_lines;
    Result<LoadGenReport> report = RunClosedLoadGen(load);
    VBLOCK_CHECK(report.ok());
    tiers.push_back({connections, *report});
  }
  server.RequestDrain();
  server_thread.join();
  const PoolCache::Stats tcp_after = tcp_service.pool_cache().stats();

  std::printf(
      "{\n"
      "  \"bench\": \"service_throughput\",\n"
      "  \"graph\": {\"model\": \"barabasi_albert_wc\", \"n\": %u, \"m\": "
      "%llu},\n"
      "  \"theta\": %u,\n"
      "  \"budget\": %u,\n"
      "  \"iterations\": %u,\n"
      "  \"sample_reuse\": \"%s\",\n"
      "  \"cold_seconds\": %.4f,\n"
      "  \"warm_seconds\": %.4f,\n"
      "  \"cold_qps\": %.2f,\n"
      "  \"warm_qps\": %.2f,\n"
      "  \"speedup_warm_vs_cold\": %.2f,\n"
      "  \"warm_served_from_cache\": %s,\n"
      "  \"identical_blocker_sets\": %s,\n"
      "  \"tcp\": {\n"
      "    \"threads\": %u,\n"
      "    \"seconds_per_tier\": %u,\n"
      "    \"pool_hits\": %llu,\n"
      "    \"pool_misses\": %llu,\n"
      "    \"tiers\": [\n",
      n,
      static_cast<unsigned long long>(
          registry.Get("bench").value()->graph.NumEdges()),
      theta, budget, iters, reuse == SampleReuse::kPrune ? "prune" : "resample",
      cold_seconds, warm_seconds, cold_qps, warm_qps, speedup,
      all_warm_hits ? "true" : "false", identical ? "true" : "false",
      tcp_threads, tcp_seconds,
      static_cast<unsigned long long>(tcp_after.hits - tcp_warmed.hits),
      static_cast<unsigned long long>(tcp_after.misses - tcp_warmed.misses));
  bool tcp_clean = true;
  for (size_t i = 0; i < tiers.size(); ++i) {
    const TierResult& tier = tiers[i];
    tcp_clean = tcp_clean && tier.report.errors == 0 &&
                tier.report.connected == tier.connections;
    std::printf(
        "      {\"connections\": %u, \"connected\": %llu, "
        "\"requests\": %llu, \"errors\": %llu, \"qps\": %.1f, "
        "\"lat_p50_ms\": %.3f, \"lat_p99_ms\": %.3f, "
        "\"lat_max_ms\": %.3f}%s\n",
        tier.connections,
        static_cast<unsigned long long>(tier.report.connected),
        static_cast<unsigned long long>(tier.report.requests),
        static_cast<unsigned long long>(tier.report.errors),
        tier.report.qps, tier.report.latency_p50_ms,
        tier.report.latency_p99_ms, tier.report.latency_max_ms,
        i + 1 < tiers.size() ? "," : "");
  }
  std::printf(
      "    ],\n"
      "    \"all_tiers_clean\": %s\n"
      "  }\n"
      "}\n",
      tcp_clean ? "true" : "false");
  return identical && all_warm_hits && tcp_clean ? 0 : 1;
}
