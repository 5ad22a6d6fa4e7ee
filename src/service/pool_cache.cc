#include "service/pool_cache.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace vblock {
namespace {

// Splits the global budget evenly; every shard gets at least one byte so a
// tiny budget with many shards still admits nothing larger than its slice
// (mirroring the unsharded "entry bigger than the budget" drop rule).
uint64_t ShardBudget(uint64_t max_bytes, size_t shards) {
  return std::max<uint64_t>(1, max_bytes / shards);
}

}  // namespace

PoolCache::PoolCache(const Options& options) : max_bytes_(options.max_bytes) {
  const uint32_t count = std::max<uint32_t>(1, options.shards);
  shards_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    shards_.back()->max_bytes = ShardBudget(options.max_bytes, count);
  }
}

std::optional<PoolCache::Key> PoolCache::KeyFor(uint64_t graph_epoch,
                                                const QueryKey& key) {
  if (key.algorithm != Algorithm::kAdvancedGreedy &&
      key.algorithm != Algorithm::kGreedyReplace) {
    return std::nullopt;
  }
  if (key.theta == 0) return std::nullopt;
  Key pool_key;
  pool_key.graph_epoch = graph_epoch;
  pool_key.query = key;
  // Collapse to the engine family: AG and GR draw identical pools, so one
  // warm entry serves both. mc_rounds is already zeroed for this family by
  // NormalizeIrrelevantKnobs; the deadline never shapes the pool either.
  pool_key.query.algorithm = Algorithm::kAdvancedGreedy;
  pool_key.query.time_limit_seconds = 0;
  return pool_key;
}

uint64_t PoolCache::HashKey(const Key& key) {
  // SplitMix64 over every field that participates in operator< — two equal
  // keys must hash equally or a key could land in two shards.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h = SplitMix64Next(h);
  };
  mix(key.graph_epoch);
  mix(static_cast<uint64_t>(key.query.algorithm));
  mix(key.query.theta);
  mix(key.query.mc_rounds);
  mix(key.query.seed);
  mix(static_cast<uint64_t>(key.query.sample_reuse));
  mix(static_cast<uint64_t>(key.query.sampler_kind));
  // time_limit_seconds is a double; hash its bits (finite by validation).
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(key.query.time_limit_seconds));
  __builtin_memcpy(&bits, &key.query.time_limit_seconds, sizeof(bits));
  mix(bits);
  for (VertexId v : key.query.seeds) mix(v);
  mix(key.query.seeds.size());
  return h;
}

PoolCache::Shard& PoolCache::ShardFor(const Key& key) {
  return *shards_[HashKey(key) % shards_.size()];
}

std::unique_ptr<WarmEntry> PoolCache::Acquire(const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.stats.misses;
    return nullptr;
  }
  ++shard.stats.hits;
  std::unique_ptr<WarmEntry> entry = std::move(it->second.entry);
  shard.stats.bytes_in_use -= entry->bytes;
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
  --shard.stats.entries;
  return entry;
}

void PoolCache::Release(const Key& key, std::unique_ptr<WarmEntry> entry) {
  if (!entry) return;
  entry->AccountBytes();
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    // A concurrent cold build beat us to the slot; keep exactly one copy
    // (they are interchangeable — both are restored pristine engines).
    EraseLocked(shard, it, /*count_eviction=*/true);
  }
  ++shard.stats.inserts;
  shard.lru.push_front(key);
  Slot slot;
  slot.entry = std::move(entry);
  slot.lru_pos = shard.lru.begin();
  shard.stats.bytes_in_use += slot.entry->bytes;
  ++shard.stats.entries;
  shard.entries.emplace(key, std::move(slot));
  EvictOverBudgetLocked(shard);
}

void PoolCache::EraseLocked(Shard& shard, std::map<Key, Slot>::iterator it,
                            bool count_eviction) {
  shard.stats.bytes_in_use -= it->second.entry->bytes;
  shard.lru.erase(it->second.lru_pos);
  --shard.stats.entries;
  if (count_eviction) ++shard.stats.evictions;
  shard.entries.erase(it);
}

void PoolCache::EvictOverBudgetLocked(Shard& shard) {
  while (shard.stats.bytes_in_use > shard.max_bytes && !shard.lru.empty()) {
    auto victim = shard.entries.find(shard.lru.back());
    EraseLocked(shard, victim, /*count_eviction=*/true);
  }
}

uint64_t PoolCache::EvictGraph(uint64_t graph_epoch) {
  uint64_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      auto next = std::next(it);
      if (it->first.graph_epoch == graph_epoch) {
        EraseLocked(shard, it, /*count_eviction=*/true);
        ++shard.stats.evicted_stale;
        ++dropped;
      }
      it = next;
    }
  }
  return dropped;
}

std::vector<std::pair<PoolCache::Key, std::unique_ptr<WarmEntry>>>
PoolCache::TakeEpoch(uint64_t graph_epoch) {
  std::vector<std::pair<Key, std::unique_ptr<WarmEntry>>> taken;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      auto next = std::next(it);
      if (it->first.graph_epoch == graph_epoch) {
        taken.emplace_back(it->first, std::move(it->second.entry));
        shard.stats.bytes_in_use -= taken.back().second->bytes;
        shard.lru.erase(it->second.lru_pos);
        --shard.stats.entries;
        ++shard.stats.migrations;
        shard.entries.erase(it);
      }
      it = next;
    }
  }
  return taken;
}

void PoolCache::CountStaleDrop(const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.stats.evicted_stale;
}

uint64_t PoolCache::EvictAll() {
  uint64_t dropped = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      auto next = std::next(it);
      EraseLocked(shard, it, /*count_eviction=*/true);
      ++dropped;
      it = next;
    }
  }
  return dropped;
}

void PoolCache::set_max_bytes(uint64_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  const uint64_t per_shard = ShardBudget(max_bytes, shards_.size());
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.max_bytes = per_shard;
    EvictOverBudgetLocked(shard);
  }
}

PoolCache::Stats PoolCache::stats() const {
  Stats total;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.inserts += shard.stats.inserts;
    total.evictions += shard.stats.evictions;
    total.migrations += shard.stats.migrations;
    total.evicted_stale += shard.stats.evicted_stale;
    total.bytes_in_use += shard.stats.bytes_in_use;
    total.entries += shard.stats.entries;
  }
  return total;
}

}  // namespace vblock
