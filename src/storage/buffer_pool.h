#ifndef CALDERA_STORAGE_BUFFER_POOL_H_
#define CALDERA_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/pager.h"

namespace caldera {

/// Counters exposed by every BufferPool. Access methods report these so
/// experiments can separate CPU cost from (simulated) disk traffic.
struct BufferPoolStats {
  uint64_t fetches = 0;      ///< Total page requests.
  uint64_t hits = 0;         ///< Requests served from cache.
  uint64_t misses = 0;       ///< Requests that went to the pager.
  uint64_t evictions = 0;    ///< Pages evicted to make room.

  BufferPoolStats& operator+=(const BufferPoolStats& o) {
    fetches += o.fetches;
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    return *this;
  }
};

class BufferPool;

/// RAII pin on a cached page. While a PageHandle is alive the frame cannot
/// be evicted.
class PageHandle {
 public:
  PageHandle() : pool_(nullptr), frame_(SIZE_MAX) {}
  PageHandle(PageHandle&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_) {
    other.pool_ = nullptr;
    other.frame_ = SIZE_MAX;
  }
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle();

  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }
  const char* data() const;
  PageId page_id() const;

  /// Explicitly unpins early (also done by the destructor).
  void Release();

 private:
  friend class BufferPool;
  PageHandle(BufferPool* pool, size_t frame) : pool_(pool), frame_(frame) {}

  BufferPool* pool_;
  size_t frame_;
};

/// A fixed-capacity LRU cache of pages read through a Pager. It only
/// reads: writers hand their pages to the Pager directly, so evicting or
/// destroying a pool writes nothing. A frame's buffer is allocated the
/// first time the frame is used, so memory tracks the pages actually
/// cached, not the capacity. Single-threaded by design (Caldera queries are
/// single-threaded; benchmarks run one pool per stream file).
class BufferPool {
 public:
  /// `capacity` is the number of page frames held in memory (>= 1).
  BufferPool(Pager* pager, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fetches page `id`, reading it from the pager on a miss.
  /// ResourceExhausted when every frame is pinned.
  Result<PageHandle> Fetch(PageId id);

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

 private:
  friend class PageHandle;

  struct Frame {
    PageId page_id = kInvalidPageId;
    std::unique_ptr<char[]> data;  // Null until the frame is first used.
    uint32_t pin_count = 0;
    // The frame's one list node, made with its buffer: in lru_ when
    // unpinned and resident, else in parked_. Moving it by splice keeps a
    // page hit from allocating.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  void Unpin(size_t frame);
  void TouchLru(size_t frame);
  Result<size_t> GrabFrame();

  Pager* pager_;
  size_t capacity_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  std::list<size_t> lru_;          // Front = most recently used.
  std::list<size_t> parked_;       // Nodes of pinned or free frames.
  std::vector<size_t> free_frames_;
  BufferPoolStats stats_;
};

}  // namespace caldera

#endif  // CALDERA_STORAGE_BUFFER_POOL_H_
