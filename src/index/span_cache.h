#ifndef CALDERA_INDEX_SPAN_CACHE_H_
#define CALDERA_INDEX_SPAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>

#include "markov/cpt.h"

namespace caldera {

/// A byte-budgeted LRU cache of the span CPTs one McIndex handle composed,
/// keyed by the span (lo, hi): the CPT relating timesteps lo -> hi. The MC
/// access method re-composes the same spans for every query over a
/// stream; memoizing them turns the dominant cost of repeated
/// variable-length queries into a hash lookup. Values are
/// shared_ptr<const Cpt>, so a hit reuses the composed table itself and an
/// eviction never frees a table a query still propagates through.
///
/// The key needs nothing else because the cache lives and dies with its
/// handle. The handle's own state fixes the stream and its files: a
/// rebuild or a recovery retires the handle, and the next query opens a
/// new one with an empty cache. McIndex::SetMinLevel, which changes the
/// levels a span is composed from, clears it. An append keeps it
/// (McIndex::Refresh says why).
///
/// Single-threaded, like the handle that owns it. An entry larger than the
/// whole budget is not cached.
class SpanCptCache {
 public:
  explicit SpanCptCache(size_t byte_budget) : byte_budget_(byte_budget) {}

  SpanCptCache(const SpanCptCache&) = delete;
  SpanCptCache& operator=(const SpanCptCache&) = delete;

  /// Returns the cached CPT of span lo -> hi, refreshing its LRU position,
  /// or nullptr.
  std::shared_ptr<const Cpt> Get(uint64_t lo, uint64_t hi);

  /// Inserts (or replaces) span lo -> hi, evicting least-recently-used
  /// entries until the budget is respected.
  void Put(uint64_t lo, uint64_t hi, std::shared_ptr<const Cpt> cpt);

  /// Drops every entry.
  void Clear();

  /// Resident CPT payload plus per-entry bookkeeping, in bytes.
  size_t bytes() const { return bytes_; }
  size_t entries() const { return lru_.size(); }

 private:
  using Span = std::pair<uint64_t, uint64_t>;
  struct SpanHash {
    size_t operator()(const Span& s) const {
      return std::hash<uint64_t>{}(s.first * 0x9e3779b97f4a7c15ull ^
                                   s.second);
    }
  };
  struct Entry {
    Span span;
    std::shared_ptr<const Cpt> cpt;
    size_t bytes = 0;
  };

  size_t byte_budget_;
  size_t bytes_ = 0;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<Span, std::list<Entry>::iterator, SpanHash> map_;
};

}  // namespace caldera

#endif  // CALDERA_INDEX_SPAN_CACHE_H_
