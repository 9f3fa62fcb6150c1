#include "index/btc_index.h"

#include <algorithm>
#include <iterator>

#include "common/encoding.h"
#include "common/logging.h"

namespace caldera {

std::string EncodeBtcKey(uint32_t value, uint64_t time) {
  std::string key;
  key.reserve(kBtcKeySize);
  EncodeU32(value, &key);
  EncodeU64(time, &key);
  return key;
}

void DecodeBtcKey(std::string_view key, uint32_t* value, uint64_t* time) {
  CALDERA_DCHECK(key.size() == kBtcKeySize);
  *value = DecodeU32(key.data());
  *time = DecodeU64(key.data() + 4);
}

Result<PredicateCursor> PredicateCursor::Create(BTree* tree,
                                                std::vector<uint32_t> values) {
  if (tree->options().key_size != kBtcKeySize) {
    return Status::InvalidArgument("tree is not a BT_C index");
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  PredicateCursor cursor;
  cursor.heads_.reserve(values.size());
  for (uint32_t v : values) {
    Head head;
    head.value = v;
    CALDERA_ASSIGN_OR_RETURN(head.cursor, tree->Seek(EncodeBtcKey(v, 0)));
    cursor.heads_.push_back(std::move(head));
    cursor.LoadHead(cursor.heads_.size() - 1);
    if (cursor.heads_.size() > 0 && !cursor.heads_.back().cursor.valid() &&
        cursor.heads_.back().time == UINT64_MAX) {
      cursor.heads_.pop_back();
    }
  }
  cursor.RecomputeMin();
  return cursor;
}

PredicateCursor PredicateCursor::Union(std::vector<PredicateCursor> cursors) {
  PredicateCursor all;
  for (PredicateCursor& c : cursors) {
    std::move(c.heads_.begin(), c.heads_.end(), std::back_inserter(all.heads_));
  }
  all.RecomputeMin();
  return all;
}

void PredicateCursor::LoadHead(size_t i) {
  Head& head = heads_[i];
  if (!head.cursor.valid()) {
    head.time = UINT64_MAX;
    return;
  }
  uint32_t value;
  uint64_t time;
  DecodeBtcKey(head.cursor.key(), &value, &time);
  if (value != head.value) {
    // Ran off the end of this value's run.
    head.time = UINT64_MAX;
    return;
  }
  head.time = time;
  head.prob = GetDouble(head.cursor.value().data());
}

void PredicateCursor::RecomputeMin() {
  // Drop exhausted heads and find the minimum time.
  heads_.erase(std::remove_if(heads_.begin(), heads_.end(),
                              [](const Head& h) { return h.time == UINT64_MAX; }),
               heads_.end());
  min_time_ = UINT64_MAX;
  for (const Head& h : heads_) min_time_ = std::min(min_time_, h.time);
}

uint64_t PredicateCursor::time() const {
  CALDERA_DCHECK(valid());
  return min_time_;
}

double PredicateCursor::prob() const {
  CALDERA_DCHECK(valid());
  double sum = 0;
  for (const Head& h : heads_) {
    if (h.time == min_time_) sum += h.prob;
  }
  return sum;
}

Status PredicateCursor::Next() {
  CALDERA_DCHECK(valid());
  for (size_t i = 0; i < heads_.size(); ++i) {
    if (heads_[i].time == min_time_) {
      CALDERA_RETURN_IF_ERROR(heads_[i].cursor.Next());
      LoadHead(i);
    }
  }
  RecomputeMin();
  return Status::Ok();
}

Status PredicateCursor::SeekTime(uint64_t t) {
  if (!valid() || min_time_ >= t) return Status::Ok();
  for (size_t i = 0; i < heads_.size(); ++i) {
    if (heads_[i].time < t) {
      CALDERA_RETURN_IF_ERROR(
          heads_[i].cursor.SeekForward(EncodeBtcKey(heads_[i].value, t)));
      LoadHead(i);
    }
  }
  RecomputeMin();
  return Status::Ok();
}

}  // namespace caldera
