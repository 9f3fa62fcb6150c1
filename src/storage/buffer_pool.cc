#include "storage/buffer_pool.h"

#include "common/logging.h"

namespace caldera {

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = SIZE_MAX;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = SIZE_MAX;
  }
}

const char* PageHandle::data() const {
  CALDERA_DCHECK(valid());
  return pool_->frames_[frame_].data.get();
}

PageId PageHandle::page_id() const {
  CALDERA_DCHECK(valid());
  return pool_->frames_[frame_].page_id;
}

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : pager_(pager), capacity_(capacity == 0 ? 1 : capacity) {
  // Frame buffers are allocated by GrabFrame on first use, so opening a
  // pool costs nothing per frame it never fills.
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    free_frames_.push_back(capacity_ - 1 - i);
  }
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  CALDERA_DCHECK(f.pin_count > 0);
  --f.pin_count;
  if (f.pin_count == 0) {
    lru_.splice(lru_.begin(), parked_, f.lru_pos);
    f.in_lru = true;
  }
}

void BufferPool::TouchLru(size_t frame) {
  Frame& f = frames_[frame];
  if (f.in_lru) {
    parked_.splice(parked_.end(), lru_, f.lru_pos);
    f.in_lru = false;
  }
}

Result<size_t> BufferPool::GrabFrame() {
  if (!free_frames_.empty()) {
    size_t frame = free_frames_.back();
    free_frames_.pop_back();
    // Uninitialized: Fetch overwrites the whole payload.
    if (frames_[frame].data == nullptr) {
      frames_[frame].data =
          std::make_unique_for_overwrite<char[]>(pager_->page_size());
      frames_[frame].lru_pos = parked_.insert(parked_.end(), frame);
    }
    return frame;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool exhausted: all " + std::to_string(capacity_) +
        " frames pinned");
  }
  size_t victim = lru_.back();
  parked_.splice(parked_.end(), lru_, std::prev(lru_.end()));
  Frame& f = frames_[victim];
  f.in_lru = false;
  page_table_.erase(f.page_id);
  f.page_id = kInvalidPageId;
  ++stats_.evictions;
  return victim;
}

Result<PageHandle> BufferPool::Fetch(PageId id) {
  ++stats_.fetches;
  auto it = page_table_.find(id);
  if (it != page_table_.end()) {
    ++stats_.hits;
    size_t frame = it->second;
    TouchLru(frame);
    ++frames_[frame].pin_count;
    return PageHandle(this, frame);
  }
  ++stats_.misses;
  CALDERA_ASSIGN_OR_RETURN(size_t frame, GrabFrame());
  Frame& f = frames_[frame];
  Status st = pager_->ReadPage(id, f.data.get());
  if (!st.ok()) {
    free_frames_.push_back(frame);
    return st;
  }
  f.page_id = id;
  f.pin_count = 1;
  page_table_[id] = frame;
  return PageHandle(this, frame);
}

}  // namespace caldera
