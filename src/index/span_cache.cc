#include "index/span_cache.h"

#include <algorithm>

namespace caldera {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

// Bookkeeping overhead per cache entry (list node + map slot + key),
// counted against the byte budget so a cache full of tiny CPTs does not
// balloon past its nominal size.
constexpr size_t kEntryOverhead = 128;

}  // namespace

uint64_t FingerprintString(std::string_view s) {
  uint64_t h = kFnvOffset;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  // Avoid 0 so callers can use 0 as "no fingerprint".
  return h == 0 ? kFnvPrime : h;
}

size_t SpanKeyHash::operator()(const SpanKey& k) const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, k.stream_id);
  h = FnvMix(h, k.epoch);
  h = FnvMix(h, k.lo);
  h = FnvMix(h, k.hi);
  h = FnvMix(h, k.min_level);
  return static_cast<size_t>(h);
}

SpanCptCache::SpanCptCache(size_t byte_budget, size_t num_shards)
    : byte_budget_(byte_budget) {
  num_shards = std::max<size_t>(1, num_shards);
  shard_budget_ = std::max<size_t>(1, byte_budget_ / num_shards);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SpanCptCache::Shard& SpanCptCache::ShardFor(const SpanKey& key) {
  return *shards_[SpanKeyHash{}(key) % shards_.size()];
}

std::shared_ptr<const Cpt> SpanCptCache::Get(const SpanKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->cpt;
}

void SpanCptCache::Put(const SpanKey& key, std::shared_ptr<const Cpt> cpt) {
  if (cpt == nullptr) return;
  size_t bytes = cpt->ByteSize() + kEntryOverhead;
  if (bytes > shard_budget_) return;  // Would evict the whole shard: skip.
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  while (shard.bytes + bytes > shard_budget_ && !shard.lru.empty()) {
    Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{key, std::move(cpt), bytes});
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  ++shard.insertions;
}

void SpanCptCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
    shard->bytes = 0;
  }
}

SpanCacheStats SpanCptCache::stats() const {
  SpanCacheStats out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.insertions += shard->insertions;
    out.evictions += shard->evictions;
    out.bytes += shard->bytes;
    out.entries += shard->lru.size();
  }
  return out;
}

}  // namespace caldera
