#ifndef CALDERA_INDEX_SPAN_CACHE_H_
#define CALDERA_INDEX_SPAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "markov/cpt.h"

namespace caldera {

/// Stable 64-bit fingerprint (FNV-1a) of a stream directory, used as the
/// span-cache stream_id.
uint64_t FingerprintString(std::string_view s);

/// Identity of one composed span CPT. Every component participates in
/// equality, so one cache instance can safely be shared across streams,
/// handle epochs and MC level restrictions:
///   stream_id     fingerprint of the stream directory
///   epoch         handle epoch the stream was opened under — bumping
///                 it (Caldera::InvalidateStreams) logically invalidates
///                 every entry of the old epoch without touching the cache
///   lo, hi        the span: the CPT relating timesteps lo -> hi
///   min_level     lowest MC level the span was composed from
///                 (McIndex::SetMinLevel); with truncation the composed CPT
///                 depends on which levels supplied it
/// Neither the stream length nor the number of MC levels is part of the
/// key, because an append cannot change a composed span. McIndex::ComputeCpt
/// uses a level block only if `cur + span <= to` and its block index is
/// `< num_records()`. Every entry an append adds, at a new level or an old
/// one, ends past the old `length - 1`, which is `>= to` for any span
/// composed before the append. So a cached span never needs the new
/// entries, and an append bumps no epoch.
struct SpanKey {
  uint64_t stream_id = 0;
  uint64_t epoch = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint32_t min_level = 1;

  bool operator==(const SpanKey&) const = default;
};

struct SpanKeyHash {
  size_t operator()(const SpanKey& k) const;
};

/// Aggregate counters across all shards since construction (Clear resets
/// bytes/entries but preserves the traffic counters).
struct SpanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t bytes = 0;    ///< Resident CPT payload bytes.
  uint64_t entries = 0;  ///< Resident entry count.
};

/// A byte-budgeted, sharded-mutex LRU cache of composed span CPTs, shared
/// across queries and batch workers. The MC-index access method re-composes
/// the same span CPTs for every query over a stream; memoizing them turns
/// the dominant cost of repeated variable-length queries into a hash
/// lookup. Values are shared_ptr<const Cpt>, so a hit reuses the composed
/// table itself across queries.
///
/// Thread-safe. Each shard has its own mutex and an equal slice of the byte
/// budget; an entry larger than its shard's slice is simply not cached.
class SpanCptCache {
 public:
  explicit SpanCptCache(size_t byte_budget, size_t num_shards = 8);

  SpanCptCache(const SpanCptCache&) = delete;
  SpanCptCache& operator=(const SpanCptCache&) = delete;

  /// Returns the cached CPT for `key`, refreshing its LRU position, or
  /// nullptr (counted as a miss).
  std::shared_ptr<const Cpt> Get(const SpanKey& key);

  /// Inserts (or replaces) `key`, evicting least-recently-used entries of
  /// the shard until its budget slice is respected.
  void Put(const SpanKey& key, std::shared_ptr<const Cpt> cpt);

  /// Drops every entry (hard invalidation: index rebuilds). Traffic
  /// counters are preserved; bytes/entries drop to zero.
  void Clear();

  SpanCacheStats stats() const;

  size_t byte_budget() const { return byte_budget_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    SpanKey key;
    std::shared_ptr<const Cpt> cpt;
    size_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // Front = most recently used.
    std::unordered_map<SpanKey, std::list<Entry>::iterator, SpanKeyHash> map;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(const SpanKey& key);

  size_t byte_budget_;
  size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Binding of a cache to one opened stream: the cache plus the fixed key
/// components of that stream. Attached to ArchivedStream / McIndex so the
/// hot path only fills in (lo, hi, min_level).
struct SpanCacheBinding {
  std::shared_ptr<SpanCptCache> cache;
  uint64_t stream_id = 0;
  uint64_t epoch = 0;

  bool valid() const { return cache != nullptr; }
  SpanKey KeyFor(uint64_t lo, uint64_t hi, uint32_t min_level) const {
    return SpanKey{stream_id, epoch, lo, hi, min_level};
  }
};

}  // namespace caldera

#endif  // CALDERA_INDEX_SPAN_CACHE_H_
