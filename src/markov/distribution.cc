#include "markov/distribution.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/encoding.h"

namespace caldera {

Distribution Distribution::FromPairs(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.value < b.value; });
  // Merge repeated values in place, so the result keeps the input buffer.
  size_t n = 0;
  for (const Entry& e : entries) {
    if (n > 0 && entries[n - 1].value == e.value) {
      entries[n - 1].prob += e.prob;
    } else {
      entries[n++] = e;
    }
  }
  entries.resize(n);
  Distribution d;
  d.entries_ = std::move(entries);
  return d;
}

Distribution Distribution::FromSorted(std::vector<Entry> entries) {
#ifndef NDEBUG
  for (size_t i = 1; i < entries.size(); ++i) {
    assert(entries[i - 1].value < entries[i].value &&
           "FromSorted entries must be strictly ascending");
  }
#endif
  Distribution d;
  d.entries_ = std::move(entries);
  return d;
}

Distribution Distribution::Point(ValueId value) {
  Distribution d;
  d.entries_.push_back({value, 1.0});
  return d;
}

void Distribution::Add(ValueId value, double prob) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), value,
      [](const Entry& e, ValueId v) { return e.value < v; });
  if (it != entries_.end() && it->value == value) {
    it->prob += prob;
  } else {
    entries_.insert(it, {value, prob});
  }
}

double Distribution::ProbabilityOf(ValueId value) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), value,
      [](const Entry& e, ValueId v) { return e.value < v; });
  if (it != entries_.end() && it->value == value) return it->prob;
  return 0.0;
}

double Distribution::Mass() const {
  double total = 0;
  for (const Entry& e : entries_) total += e.prob;
  return total;
}

void Distribution::Normalize() {
  double mass = Mass();
  if (mass <= 0) return;
  for (Entry& e : entries_) e.prob /= mass;
}

void Distribution::Truncate(double eps) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [eps](const Entry& e) { return e.prob < eps; }),
                 entries_.end());
  Normalize();
}

bool Distribution::IsNormalized(double tol) const {
  return std::fabs(Mass() - 1.0) <= tol;
}

void Distribution::AppendTo(std::string* out) const {
  PutFixed32(static_cast<uint32_t>(entries_.size()), out);
  for (const Entry& e : entries_) {
    PutFixed32(e.value, out);
    PutDouble(e.prob, out);
  }
}

Status Distribution::Parse(std::string_view data, size_t* offset,
                           uint32_t domain, Distribution* out) {
  out->entries_.clear();
  auto corrupt = [out](const std::string& what) {
    out->entries_.clear();
    return Status::Corruption(what);
  };
  if (*offset + 4 > data.size()) {
    return corrupt("truncated distribution header");
  }
  uint32_t count = GetFixed32(data.data() + *offset);
  *offset += 4;
  if (*offset + count * 12ull > data.size()) {
    return corrupt("truncated distribution entries");
  }
  out->entries_.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ValueId value = GetFixed32(data.data() + *offset);
    double prob = GetDouble(data.data() + *offset + 4);
    *offset += 12;
    if (i > 0 && value <= out->entries_.back().value) {
      return corrupt("distribution entries out of order");
    }
    if (value >= domain) {
      return corrupt("distribution names state " + std::to_string(value) +
                     " outside a domain of " + std::to_string(domain));
    }
    out->entries_.push_back({value, prob});
  }
  return Status::Ok();
}

}  // namespace caldera
