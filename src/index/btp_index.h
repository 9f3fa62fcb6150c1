#ifndef CALDERA_INDEX_BTP_INDEX_H_
#define CALDERA_INDEX_BTP_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/status.h"

namespace caldera {

// BT_P — the probability-ordered secondary index of Section 3.2.
//
// One BT_P indexes one stream attribute. Entries (no payload):
//   key = (attribute value : u32 BE,
//          1 - prob        : f64 order-preserving,   <- higher prob first
//          time            : u64 BE)
// Within one attribute value, a forward scan visits timesteps in
// decreasing order of marginal probability — the access order of the
// Threshold Algorithm.

inline constexpr uint32_t kBtpKeySize = 20;
inline constexpr uint32_t kBtpValueSize = 0;

std::string EncodeBtpKey(uint32_t value, double prob, uint64_t time);
void DecodeBtpKey(std::string_view key, uint32_t* value, double* prob,
                  uint64_t* time);

/// Iterates the (time, probability) entries of one predicate in decreasing
/// probability order, merging the per-value runs of a BT_P tree.
///
/// For single-value (equality) predicates the reported probability IS the
/// predicate's marginal. For multi-value predicates it is a per-value
/// probability; UpperBound() converts it into a sound bound on the
/// predicate probability of all unseen timesteps.
class TopProbCursor {
 public:
  static Result<TopProbCursor> Create(BTree* tree,
                                      std::vector<uint32_t> values);

  bool valid() const { return best_ != SIZE_MAX; }

  uint64_t time() const;
  double prob() const;
  uint32_t value() const;

  /// A sound upper bound on the predicate's marginal probability at any
  /// timestep not yet emitted: min(1, num_values * max remaining per-value
  /// probability).
  double UpperBound() const;

  /// Advances past the current entry.
  Status Next();

 private:
  struct Head {
    uint32_t value;
    uint64_t time;
    double prob;
    BTree::Cursor cursor;
  };

  explicit TopProbCursor(BTree* tree) : tree_(tree) {}

  void LoadHead(size_t i);
  void RecomputeBest();

  BTree* tree_;
  std::vector<Head> heads_;
  size_t num_values_ = 0;
  size_t best_ = SIZE_MAX;  // Index of the max-probability head.
};

}  // namespace caldera

#endif  // CALDERA_INDEX_BTP_INDEX_H_
