#ifndef CALDERA_MARKOV_DISTRIBUTION_H_
#define CALDERA_MARKOV_DISTRIBUTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace caldera {

/// Identifier of one state of a Markovian stream (e.g. one location in the
/// RFID domain, or a mixed-radix encoding of a multi-attribute state).
using ValueId = uint32_t;

/// A sparse probability vector over stream states: the marginal distribution
/// of one timestep. Entries are sorted by value id; values absent from the
/// support have probability zero.
class Distribution {
 public:
  struct Entry {
    ValueId value;
    double prob;

    bool operator==(const Entry&) const = default;
  };

  Distribution() = default;

  /// Builds from (value, prob) pairs; pairs need not be sorted and repeated
  /// values are summed.
  static Distribution FromPairs(std::vector<Entry> entries);

  /// Builds from entries already sorted by value with no duplicates —
  /// the move-friendly fast path for kernel outputs and merges of a single
  /// sorted run (no re-sort, no merge pass). Checked in debug builds.
  static Distribution FromSorted(std::vector<Entry> entries);

  /// Point mass on `value`.
  static Distribution Point(ValueId value);

  /// Adds `prob` to the mass of `value` (build helper; keeps order).
  void Add(ValueId value, double prob);

  /// Probability of `value` (0 if outside the support).
  double ProbabilityOf(ValueId value) const;

  /// Sum of the probability mass of all values matched by `matcher`.
  template <typename Matcher>
  double MassWhere(const Matcher& matcher) const {
    double total = 0;
    for (const Entry& e : entries_) {
      if (matcher(e.value)) total += e.prob;
    }
    return total;
  }

  /// Total mass (1.0 for a normalized distribution; access methods also use
  /// sub-stochastic vectors internally).
  double Mass() const;

  /// Scales entries so Mass() == 1. No-op on an empty distribution.
  void Normalize();

  /// Drops entries with prob < eps and renormalizes. Models the finite
  /// sample count of sample-based smoothing (Section 2.1 of the paper).
  void Truncate(double eps);

  bool IsNormalized(double tol = 1e-9) const;

  bool empty() const { return entries_.empty(); }
  size_t support_size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }
  /// Moves the entries out, leaving the distribution empty, so their
  /// buffer can be reused for another distribution.
  std::vector<Entry> TakeEntries() && { return std::move(entries_); }

  bool operator==(const Distribution&) const = default;

  // Binary serialization: u32 count, then count * (u32 value, f64 prob).
  void AppendTo(std::string* out) const;

  /// Decodes one distribution from `data` at `*offset` into `out`, reusing
  /// its capacity. Returns Corruption unless the count fits in the
  /// remaining bytes and the values ascend and are below `domain`. On error
  /// `out` is left empty.
  static Status Parse(std::string_view data, size_t* offset, uint32_t domain,
                      Distribution* out);

 private:
  std::vector<Entry> entries_;
};

}  // namespace caldera

#endif  // CALDERA_MARKOV_DISTRIBUTION_H_
