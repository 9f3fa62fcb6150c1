#ifndef CALDERA_INDEX_BTC_INDEX_H_
#define CALDERA_INDEX_BTC_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/status.h"

namespace caldera {

// BT_C — the chronological secondary index of Section 3.1.
//
// One BT_C indexes one stream attribute. Entries:
//   key   = (attribute value : u32 big-endian, time : u64 big-endian)
//   value = marginal probability of that attribute value at that time (f64)
// A timestep appears once per attribute value in its marginal support, so a
// cursor over a predicate's values visits exactly the timesteps where the
// predicate has nonzero probability.

inline constexpr uint32_t kBtcKeySize = 12;
inline constexpr uint32_t kBtcValueSize = 8;

/// Encodes a BT_C key.
std::string EncodeBtcKey(uint32_t value, uint64_t time);

/// Decodes a BT_C key into (value, time).
void DecodeBtcKey(std::string_view key, uint32_t* value, uint64_t* time);

/// Iterates, in strictly increasing time order, the timesteps at which ANY
/// of a set of attribute values has nonzero marginal probability — i.e. the
/// timesteps relevant to one predicate. Implemented as a k-way merge of the
/// per-value runs of a BT_C tree.
class PredicateCursor {
 public:
  /// `values` are the attribute values matched by the predicate.
  static Result<PredicateCursor> Create(BTree* tree,
                                        std::vector<uint32_t> values);

  /// One cursor over the union of `cursors` (the "timesteps referenced by
  /// any C_i" loop of Algorithms 4 and 5): it moves every head of each into
  /// one k-way merge. Its prob() sums all merged values present at a
  /// timestep, so a value two cursors share counts twice.
  static PredicateCursor Union(std::vector<PredicateCursor> cursors);

  bool valid() const { return !heads_.empty(); }

  /// Current timestep.
  uint64_t time() const;

  /// Predicate marginal probability at the current timestep (sum over the
  /// merged values present at this time).
  double prob() const;

  /// Advances to the next relevant timestep (strictly greater time).
  Status Next();

  /// Advances to the first relevant timestep with time >= t (no-op if
  /// already there).
  Status SeekTime(uint64_t t);

 private:
  struct Head {
    uint32_t value;
    uint64_t time;
    double prob;
    BTree::Cursor cursor;
  };

  PredicateCursor() = default;

  /// Refreshes head `i` from its B+ tree cursor; drops it when its value
  /// run is exhausted.
  void LoadHead(size_t i);
  void RecomputeMin();

  std::vector<Head> heads_;
  uint64_t min_time_ = 0;
};

}  // namespace caldera

#endif  // CALDERA_INDEX_BTC_INDEX_H_
