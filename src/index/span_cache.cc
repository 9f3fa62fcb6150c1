#include "index/span_cache.h"

namespace caldera {
namespace {

// Bookkeeping overhead per cache entry (list node + map slot + key),
// counted against the byte budget so a cache full of tiny CPTs does not
// balloon past its nominal size.
constexpr size_t kEntryOverhead = 128;

}  // namespace

std::shared_ptr<const Cpt> SpanCptCache::Get(uint64_t lo, uint64_t hi) {
  auto it = map_.find(Span(lo, hi));
  if (it == map_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->cpt;
}

void SpanCptCache::Put(uint64_t lo, uint64_t hi,
                       std::shared_ptr<const Cpt> cpt) {
  if (cpt == nullptr) return;
  const size_t bytes = cpt->ByteSize() + kEntryOverhead;
  if (bytes > byte_budget_) return;  // Would evict everything: skip.
  const Span span(lo, hi);
  auto it = map_.find(span);
  if (it != map_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    map_.erase(it);
  }
  while (bytes_ + bytes > byte_budget_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    map_.erase(victim.span);
    lru_.pop_back();
  }
  lru_.push_front(Entry{span, std::move(cpt), bytes});
  map_.emplace(span, lru_.begin());
  bytes_ += bytes;
}

void SpanCptCache::Clear() {
  lru_.clear();
  map_.clear();
  bytes_ = 0;
}

}  // namespace caldera
