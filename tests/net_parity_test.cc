// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// TCP/in-process parity: N concurrent clients submitting shuffled SOLVE
// workloads over a real socket must receive responses bit-identical to a
// sequential in-process ServiceSession, for every service worker count.
// Only the "pool=" token is excluded: warm/cold is an execution-order
// artifact the determinism contract explicitly leaves out. Also pins the
// PoolCache budget contract: a working set inside the byte budget stays
// resident (an entry is evicted only when the whole cache is over budget),
// and eviction under concurrent load keeps the ledger balanced.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gen/generators.h"
#include "net/line_client.h"
#include "net/tcp_server.h"
#include "prob/probability_models.h"
#include "service/protocol.h"

namespace vblock {
namespace {

// Same toy workload as service_test.cc: θ=200 AG/GR solves in
// milliseconds, non-trivial blocker structure.
Graph TestGraph() {
  return WithWeightedCascade(GenerateBarabasiAlbert(300, 3, /*seed=*/7));
}

ServiceOptions FastOptions(uint32_t num_threads) {
  ServiceOptions options;
  options.num_threads = num_threads;
  options.defaults.theta = 200;
  options.defaults.mc_rounds = 200;
  options.defaults.seed = 11;
  return options;
}

// The workload. Repeats of line 0 exercise the warm-pool path; distinct
// SEED values exercise distinct pool keys.
std::vector<std::string> SolveLines() {
  return {
      "SOLVE g SEEDS 1,2 BUDGET 2 ALG gr",
      "SOLVE g SEEDS 3,4,5 BUDGET 3 ALG od",
      "SOLVE g SEEDS 7 BUDGET 2 ALG gr SEED 5",
      "SOLVE g SEEDS 2,9 BUDGET 4 ALG ag",
      "SOLVE g SEEDS 10,11 BUDGET 2 ALG gr REUSE resample",
      "SOLVE g SEEDS 1,2 BUDGET 2 ALG gr",
      "SOLVE g SEEDS 6 BUDGET 1 ALG ra SEED 3",
      "SOLVE g SEEDS 12,13,14 BUDGET 3 ALG gr SAMPLER skip",
  };
}

// Warm vs cold is scheduling-dependent; everything else must match.
std::string StripPoolToken(std::string response) {
  const size_t start = response.find(" pool=");
  if (start == std::string::npos) return response;
  size_t end = response.find(' ', start + 1);
  if (end == std::string::npos) end = response.size();
  response.erase(start, end - start);
  return response;
}

// Reference answers: a fresh single-threaded in-process session.
std::vector<std::string> ExpectedResponses(
    const std::vector<std::string>& lines) {
  GraphRegistry registry;
  QueryService service(&registry, FastOptions(1));
  registry.Add("g", TestGraph());
  ServiceSession session(&registry, &service);
  std::vector<std::string> expected;
  expected.reserve(lines.size());
  for (const std::string& line : lines) {
    std::string response = session.Execute(line);
    EXPECT_EQ(response.rfind("OK ", 0), 0u) << line << " -> " << response;
    expected.push_back(StripPoolToken(std::move(response)));
  }
  return expected;
}

class TcpParity : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TcpParity, ShuffledConcurrentClientsMatchInProcess) {
  const uint32_t num_threads = GetParam();
  const std::vector<std::string> lines = SolveLines();
  const std::vector<std::string> expected = ExpectedResponses(lines);

  GraphRegistry registry;
  QueryService service(&registry, FastOptions(num_threads));
  registry.Add("g", TestGraph());
  TcpServer server(&registry, &service, TcpServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  std::thread server_thread([&] { server.Run(); });

  constexpr uint32_t kClients = 3;
  std::vector<std::vector<std::string>> got(
      kClients, std::vector<std::string>(lines.size()));
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client sends every line once, in its own shuffled order.
      std::vector<size_t> order(lines.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::mt19937_64 shuffle_rng(1000 * num_threads + 100 + c);
      std::shuffle(order.begin(), order.end(), shuffle_rng);

      LineClient client;
      Status connected = client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures[c] = connected.message();
        return;
      }
      for (const size_t index : order) {
        Result<std::string> response = client.Roundtrip(lines[index]);
        if (!response.ok()) {
          failures[c] = response.status().message();
          return;
        }
        got[c][index] = StripPoolToken(std::move(*response));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.RequestDrain();
  server_thread.join();

  for (uint32_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": "
                                     << failures[c];
    for (size_t i = 0; i < lines.size(); ++i) {
      EXPECT_EQ(got[c][i], expected[i])
          << "client " << c << ", line: " << lines[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, TcpParity, ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// ------------------------------------------------------------ cache budget --

IminRequest PoolRequest(uint64_t rng_seed) {
  IminRequest request;
  request.graph = "g";
  request.query.seeds = {1, 2, 3};
  request.query.budget = 2;
  request.query.algorithm = Algorithm::kGreedyReplace;
  request.query.theta = 200;
  request.query.seed = rng_seed;  // distinct seed => distinct pool key
  return request;
}

// 8 distinct keys under a budget of 1.25x their footprint: once warmed,
// every key stays resident, so a second pass is served entirely from the
// cache.
TEST(PoolCacheBudget, WorkingSetWithinBudgetServesTheSecondPassWarm) {
  constexpr uint64_t kKeys = 8;
  GraphRegistry registry;
  QueryService service(&registry, FastOptions(1));
  registry.Add("g", TestGraph());
  PoolCache& cache = service.pool_cache();

  ASSERT_TRUE(service.SubmitAndWait(PoolRequest(/*rng_seed=*/100)).ok());
  const uint64_t entry_bytes = cache.stats().bytes_in_use;
  ASSERT_GT(entry_bytes, 0u);
  ASSERT_EQ(cache.EvictAll(), 1u);
  cache.set_max_bytes(entry_bytes * kKeys * 5 / 4);

  auto pass = [&] {
    for (uint64_t key = 0; key < kKeys; ++key) {
      Result<SolverResult> result =
          service.SubmitAndWait(PoolRequest(/*rng_seed=*/100 + key));
      ASSERT_TRUE(result.ok()) << result.status().message();
    }
  };
  pass();
  const PoolCache::Stats warm = cache.stats();
  EXPECT_EQ(warm.entries, kKeys);
  pass();
  const PoolCache::Stats second = cache.stats();
  EXPECT_EQ(second.hits - warm.hits, kKeys);
  EXPECT_EQ(second.misses - warm.misses, 0u);
  EXPECT_EQ(second.evictions - warm.evictions, 0u);
  EXPECT_LE(second.bytes_in_use, cache.max_bytes());
}

// Eviction under concurrent load with a byte budget far below the working
// set: whatever interleaving the scheduler produces, the quiescent ledger
// must balance and the budget must hold.
TEST(PoolCacheBudget, EvictionUnderLoadKeepsTheLedger) {
  GraphRegistry registry;
  ServiceOptions options = FastOptions(4);
  options.cache.max_bytes = 1ull << 20;
  QueryService service(&registry, options);
  registry.Add("g", TestGraph());

  std::vector<std::future<Result<SolverResult>>> futures;
  for (int repeat = 0; repeat < 2; ++repeat) {
    for (uint64_t key = 0; key < 24; ++key) {
      futures.push_back(service.Submit(PoolRequest(/*rng_seed=*/500 + key)));
    }
  }
  for (auto& future : futures) {
    Result<SolverResult> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().message();
  }

  const PoolCache::Stats stats = service.pool_cache().stats();
  EXPECT_EQ(stats.entries, stats.inserts - stats.hits - stats.evictions -
                               stats.migrations);
  EXPECT_LE(stats.bytes_in_use, service.pool_cache().max_bytes());
  EXPECT_GT(stats.evictions, 0u) << "budget was meant to force evictions";
  // Identical concurrent submissions may coalesce, so the exact
  // acquire count is scheduling-dependent — but every computation that
  // ran recorded exactly one hit or miss, and 24 distinct keys existed.
  EXPECT_GE(stats.hits + stats.misses, 24u);

  // EvictAll drains exactly the resident entries and zeroes the footprint.
  const uint64_t dropped = service.pool_cache().EvictAll();
  const PoolCache::Stats after = service.pool_cache().stats();
  EXPECT_EQ(dropped, stats.entries);
  EXPECT_EQ(after.entries, 0u);
  EXPECT_EQ(after.bytes_in_use, 0u);
}

}  // namespace
}  // namespace vblock
