// Copyright (c) the vblock authors. Licensed under the MIT license.
//
// LRU cache of warmed θ-sample scoring engines.
//
// Building a SpreadDecreaseEngine — unify the seeds, draw θ live-edge
// samples, compute θ dominator trees — dominates the latency of an AG/GR
// solve. For a hot (graph, seed set, sampling parameters) key that work is
// identical on every request, so the cache keeps the finished product: a
// WarmEntry (core/greedy.h) holding the unified instance plus an engine
// restored to its freshly-Build() state. The service runs SolveGreedy on
// the checked-out entry, which builds only what the entry lacks, so a
// cache hit skips the entire build; the
// determinism contract (docs/DESIGN.md §8) guarantees the warm solve is
// bit-identical to the cold one, because SpreadDecreaseEngine::Restore
// provably returns the engine to the same bits a fresh Build produces.
//
// Keying: PoolCache::KeyFor projects the canonical QueryKey
// (core/query_key.h — the exact key BatchSolver groups on) onto the fields
// a warm pool actually depends on: graph epoch, canonical seed set, θ, RNG
// seed, reuse mode, SamplerKind. Algorithm is collapsed to the engine
// family — AdvancedGreedy and GreedyReplace share one pool — and
// mc_rounds / time-limit are dropped (the pool never reads them).
//
// Concurrency: entries are checked OUT of the cache (Acquire transfers
// ownership) and checked back IN after restoration (Release). Two
// concurrent requests for one key therefore never share a mutating engine
// — the second finds the slot empty, records a miss, and builds cold; the
// in-flight deduplication layer above (query_service.h) makes that case
// rare by coalescing identical requests outright.
//
// One lock (docs/DESIGN.md §9): one mutex guards the map, the LRU list,
// the stats and the byte budget. It is held only for map and list
// operations; the build and the solve run outside it, on a checked-out
// entry.
//
// Budget: every entry is byte-accounted (engine + sample pool + the
// unified graph's CSR). Release inserts the entry as most-recent and then
// evicts least-recently-used entries until the byte budget holds; an
// entry larger than the whole budget is dropped on the spot.

#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <vector>

#include "core/greedy.h"
#include "core/query_key.h"

namespace vblock {

/// Thread-safe LRU cache of WarmEntry values under a byte budget.
class PoolCache {
 public:
  struct Options {
    /// Byte budget across all cached entries (default 256 MiB).
    uint64_t max_bytes = 256ull << 20;
  };

  /// Cache address: graph epoch + the pool-relevant QueryKey projection.
  struct Key {
    uint64_t graph_epoch = 0;
    QueryKey query;

    bool operator<(const Key& o) const {
      return std::tie(graph_epoch, query) < std::tie(o.graph_epoch, o.query);
    }
  };

  /// Monotonic counters plus the current footprint. hits/misses count
  /// Acquire outcomes; evictions counts LRU drops (budget pressure,
  /// EvictGraph, EvictAll), not Acquire checkouts; migrations counts
  /// entries checked out by TakeEpoch for epoch migration; evicted_stale
  /// is the stale-epoch subset — EvictGraph drops (also in evictions) and
  /// migrated-out entries that could not be carried forward
  /// (CountStaleDrop; already in migrations). Ledger invariant at
  /// quiescence (no entry checked out):
  /// entries == inserts − hits − evictions − migrations —
  /// every departure from the map is counted exactly once (warm checkouts
  /// under `hits`, drops under `evictions`, epoch sweeps under
  /// `migrations`) and every arrival under `inserts`, including an entry
  /// checked back in after a hit or a migration;
  /// tests/service_test.cc asserts this.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t migrations = 0;
    uint64_t evicted_stale = 0;
    uint64_t bytes_in_use = 0;
    uint64_t entries = 0;
  };

  PoolCache() : PoolCache(Options()) {}
  explicit PoolCache(const Options& options);

  /// The cache key for a canonical query key against `graph_epoch`, or
  /// nullopt when the algorithm has no warmable pool (only the
  /// SpreadDecreaseEngine family — AG and GR, which share entries — with a
  /// positive θ caches).
  static std::optional<Key> KeyFor(uint64_t graph_epoch, const QueryKey& key);

  /// Checks the entry for `key` out of the cache (exclusive ownership
  /// transfers to the caller; the slot empties). Records a hit or miss.
  std::unique_ptr<WarmEntry> Acquire(const Key& key);

  /// Checks `entry` back in as the most-recently-used entry for `key`,
  /// re-accounts its bytes, and evicts LRU entries until the byte budget
  /// holds. A null entry is ignored. If the slot was refilled in the
  /// meantime (two concurrent cold builds of one key), the incumbent is
  /// replaced — the entries are interchangeable by construction.
  void Release(const Key& key, std::unique_ptr<WarmEntry> entry);

  /// Drops every entry keyed to `graph_epoch` (a removed or replaced
  /// registry graph). Counted as evictions AND evicted_stale; returns how
  /// many were dropped.
  uint64_t EvictGraph(uint64_t graph_epoch);

  /// Checks every entry keyed to `graph_epoch` out of the cache in one
  /// sweep — the epoch-migration path (query_service.h MigrateEpoch).
  /// Ownership transfers to the caller exactly as with Acquire, but the
  /// departures are counted under `migrations` (not hits or evictions):
  /// the caller re-derives each entry against the successor epoch and
  /// Releases it under its new key, or drops it and calls CountStaleDrop.
  std::vector<std::pair<Key, std::unique_ptr<WarmEntry>>> TakeEpoch(
      uint64_t graph_epoch);

  /// Records that an entry checked out by TakeEpoch could not be carried
  /// to the new epoch and was dropped (informational `evicted_stale`
  /// bump; the entry already left the ledger under `migrations`).
  void CountStaleDrop();

  /// Drops everything. Counted as evictions; returns how many were dropped.
  uint64_t EvictAll();

  uint64_t max_bytes() const;

  /// Adjusts the byte budget, immediately
  /// evicting LRU entries if the new budget is tighter than the current
  /// footprint.
  void set_max_bytes(uint64_t max_bytes);

  Stats stats() const;

 private:
  struct Slot {
    std::unique_ptr<WarmEntry> entry;
    // Position in lru_ (most-recent at front). Only valid while entry is
    // present (checked-out slots are erased from the map).
    std::list<Key>::iterator lru_pos;
  };

  void EvictOverBudgetLocked();
  void EvictLocked(std::map<Key, Slot>::iterator it);

  mutable std::mutex mutex_;
  std::map<Key, Slot> entries_;
  std::list<Key> lru_;  // front = most recent
  Stats stats_;
  uint64_t max_bytes_;
};

}  // namespace vblock
