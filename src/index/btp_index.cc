#include "index/btp_index.h"

#include <algorithm>

#include "common/encoding.h"
#include "common/logging.h"

namespace caldera {

std::string EncodeBtpKey(uint32_t value, double prob, uint64_t time) {
  std::string key;
  key.reserve(kBtpKeySize);
  EncodeU32(value, &key);
  EncodeProbDescending(prob, &key);
  EncodeU64(time, &key);
  return key;
}

void DecodeBtpKey(std::string_view key, uint32_t* value, double* prob,
                  uint64_t* time) {
  CALDERA_DCHECK(key.size() == kBtpKeySize);
  *value = DecodeU32(key.data());
  *prob = DecodeProbDescending(key.data() + 4);
  *time = DecodeU64(key.data() + 12);
}

Result<TopProbCursor> TopProbCursor::Create(BTree* tree,
                                            std::vector<uint32_t> values) {
  if (tree->options().key_size != kBtpKeySize) {
    return Status::InvalidArgument("tree is not a BT_P index");
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  TopProbCursor cursor(tree);
  cursor.num_values_ = values.size();
  cursor.heads_.reserve(values.size());
  for (uint32_t v : values) {
    Head head;
    head.value = v;
    // Seek to the run start: highest probability first.
    CALDERA_ASSIGN_OR_RETURN(head.cursor,
                             tree->Seek(EncodeBtpKey(v, 1.0, 0)));
    cursor.heads_.push_back(std::move(head));
    cursor.LoadHead(cursor.heads_.size() - 1);
  }
  cursor.RecomputeBest();
  return cursor;
}

void TopProbCursor::LoadHead(size_t i) {
  Head& head = heads_[i];
  if (!head.cursor.valid()) {
    head.prob = -1.0;
    return;
  }
  uint32_t value;
  double prob;
  uint64_t time;
  DecodeBtpKey(head.cursor.key(), &value, &prob, &time);
  if (value != head.value) {
    head.prob = -1.0;
    return;
  }
  head.prob = prob;
  head.time = time;
}

void TopProbCursor::RecomputeBest() {
  best_ = SIZE_MAX;
  for (size_t i = 0; i < heads_.size(); ++i) {
    if (heads_[i].prob < 0) continue;
    if (best_ == SIZE_MAX || heads_[i].prob > heads_[best_].prob) best_ = i;
  }
}

uint64_t TopProbCursor::time() const {
  CALDERA_DCHECK(valid());
  return heads_[best_].time;
}

double TopProbCursor::prob() const {
  CALDERA_DCHECK(valid());
  return heads_[best_].prob;
}

uint32_t TopProbCursor::value() const {
  CALDERA_DCHECK(valid());
  return heads_[best_].value;
}

double TopProbCursor::UpperBound() const {
  if (!valid()) return 0.0;
  return std::min(1.0, static_cast<double>(num_values_) * prob());
}

Status TopProbCursor::Next() {
  CALDERA_DCHECK(valid());
  CALDERA_RETURN_IF_ERROR(heads_[best_].cursor.Next());
  LoadHead(best_);
  RecomputeBest();
  return Status::Ok();
}

}  // namespace caldera
