#include "service/pool_cache.h"

#include <utility>

namespace vblock {

PoolCache::PoolCache(const Options& options) : max_bytes_(options.max_bytes) {}

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

std::unique_ptr<WarmEntry> PoolCache::Acquire(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  std::unique_ptr<WarmEntry> entry = std::move(it->second.entry);
  stats_.bytes_in_use -= entry->bytes;
  lru_.erase(it->second.lru_pos);
  entries_.erase(it);
  --stats_.entries;
  return entry;
}

void PoolCache::Release(const Key& key, std::unique_ptr<WarmEntry> entry) {
  if (!entry) return;
  entry->AccountBytes();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent cold build beat us to the slot; keep exactly one copy
    // (they are interchangeable — both are restored pristine engines).
    EvictLocked(it);
  }
  ++stats_.inserts;
  lru_.push_front(key);
  Slot slot;
  slot.entry = std::move(entry);
  slot.lru_pos = lru_.begin();
  stats_.bytes_in_use += slot.entry->bytes;
  ++stats_.entries;
  entries_.emplace(key, std::move(slot));
  EvictOverBudgetLocked();
}

void PoolCache::EvictLocked(std::map<Key, Slot>::iterator it) {
  stats_.bytes_in_use -= it->second.entry->bytes;
  lru_.erase(it->second.lru_pos);
  --stats_.entries;
  ++stats_.evictions;
  entries_.erase(it);
}

void PoolCache::EvictOverBudgetLocked() {
  while (stats_.bytes_in_use > max_bytes_ && !lru_.empty()) {
    EvictLocked(entries_.find(lru_.back()));
  }
}

uint64_t PoolCache::EvictGraph(uint64_t graph_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (it->first.graph_epoch == graph_epoch) {
      EvictLocked(it);
      ++stats_.evicted_stale;
      ++dropped;
    }
    it = next;
  }
  return dropped;
}

std::vector<std::pair<PoolCache::Key, std::unique_ptr<WarmEntry>>>
PoolCache::TakeEpoch(uint64_t graph_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<Key, std::unique_ptr<WarmEntry>>> taken;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (it->first.graph_epoch == graph_epoch) {
      taken.emplace_back(it->first, std::move(it->second.entry));
      stats_.bytes_in_use -= taken.back().second->bytes;
      lru_.erase(it->second.lru_pos);
      --stats_.entries;
      ++stats_.migrations;
      entries_.erase(it);
    }
    it = next;
  }
  return taken;
}

void PoolCache::CountStaleDrop() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.evicted_stale;
}

uint64_t PoolCache::EvictAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint64_t dropped = entries_.size();
  while (!entries_.empty()) EvictLocked(entries_.begin());
  return dropped;
}

uint64_t PoolCache::max_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_bytes_;
}

void PoolCache::set_max_bytes(uint64_t max_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  max_bytes_ = max_bytes;
  EvictOverBudgetLocked();
}

PoolCache::Stats PoolCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace vblock
