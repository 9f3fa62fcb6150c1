#ifndef CALDERA_MARKOV_CPT_H_
#define CALDERA_MARKOV_CPT_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "markov/distribution.h"

namespace caldera {

/// A conditional probability table (CPT): the sparse stochastic matrix
/// relating consecutive (or, via the MC index, distant) Markovian stream
/// timesteps. Row `src` holds P(X_next = dst | X_prev = src).
///
/// The table is stored in compressed sparse row (CSR) form: four flat
/// arrays, rows sorted by source id and each row's entries sorted by
/// destination id. It is the one in-memory form: the decoder fills it, the
/// compute kernels (markov/kernels.h) read and write it directly, and
/// `AppendTo` serializes it. Sources outside the previous timestep's support
/// need no row.
class Cpt {
 public:
  struct RowEntry {
    ValueId dst;
    double prob;

    bool operator==(const RowEntry&) const = default;
  };

  /// One row: its source and parallel destination/probability slices. Valid
  /// until the table is next modified.
  struct RowView {
    ValueId src;
    std::span<const ValueId> dsts;
    std::span<const double> probs;

    size_t size() const { return dsts.size(); }
  };

  /// Row builder. Sets the row for `src`, replacing any existing row;
  /// `entries` need not be sorted, and duplicate destinations are summed.
  /// Rows arriving in ascending `src` order append in amortized O(row); any
  /// other order rebuilds the arrays.
  void SetRow(ValueId src, std::vector<RowEntry> entries);

  /// Ordered builder under SetRow, the decoder and the compose kernels:
  /// PushEntry appends to the row being built, EndRow(src) closes it (an
  /// empty row is kept). `src` must exceed every earlier row's and the
  /// pushed destinations must ascend strictly.
  void PushEntry(ValueId dst, double prob) {
    dsts_.push_back(dst);
    probs_.push_back(prob);
  }
  void EndRow(ValueId src);

  /// Empties the table, keeping its capacity for the next build or decode.
  void Clear();

  RowView row(size_t i) const;
  /// The row for `src`, if the table has one.
  std::optional<RowView> FindRow(ValueId src) const;

  /// P(dst | src); 0 if the pair is absent.
  double Probability(ValueId src, ValueId dst) const;

  /// Propagates a (possibly sub-stochastic) distribution through this CPT:
  /// out[y] = sum_x in[x] * P(y|x), zeros dropped. Mass on sources without a
  /// row is dropped (those sources are outside the stream's support). Runs
  /// kernels::Propagate (markov/kernels.h) on a thread-local workspace, so
  /// its result is bit-identical to the Reg operator's propagation.
  Distribution Propagate(const Distribution& in) const;

  /// Verifies every entry is finite and non-negative and every row sums to
  /// 1 within `tol`.
  Status ValidateStochastic(double tol = 1e-6) const;

  size_t num_rows() const { return srcs_.size(); }
  bool empty() const { return srcs_.empty(); }
  /// Total number of nonzero transition entries.
  size_t nnz() const { return dsts_.size(); }

  // The CSR arrays. offsets() holds num_rows() + 1 entries (none when the
  // table is empty); row i spans [offsets()[i], offsets()[i + 1]) of dsts()
  // and probs().
  const std::vector<ValueId>& srcs() const { return srcs_; }
  const std::vector<uint32_t>& offsets() const { return offsets_; }
  const std::vector<ValueId>& dsts() const { return dsts_; }
  const std::vector<double>& probs() const { return probs_; }
  /// Smallest destination in the table (0 if it has no entries).
  ValueId dst_begin() const { return dst_begin_; }
  /// Largest destination + 1 (0 if it has no entries).
  ValueId dst_end() const { return dst_end_; }

  /// Approximate in-memory/on-disk footprint in bytes.
  size_t ByteSize() const;

  bool operator==(const Cpt&) const = default;

  // Binary serialization:
  //   u32 num_rows, then per row: u32 src, u32 count, count*(u32 dst,f64 p).
  void AppendTo(std::string* out) const;

  /// Decodes one table from `data` at `*offset` into `out`, reusing its
  /// capacity. Returns Corruption unless rows ascend by src, each row's
  /// destinations ascend, every count fits in the remaining bytes, and every
  /// src and dst is below `domain`. On error `out` is left empty.
  static Status Parse(std::string_view data, size_t* offset, uint32_t domain,
                      Cpt* out);

 private:
  std::vector<ValueId> srcs_;
  std::vector<uint32_t> offsets_;
  std::vector<ValueId> dsts_;
  std::vector<double> probs_;
  ValueId dst_begin_ = 0;
  ValueId dst_end_ = 0;
};

/// Chain-rule composition (Section 3.3.1): given `first` = CPT(a -> m) and
/// `second` = CPT(m -> b), writes CPT(a -> b) with
/// P(z|x) = sum_y first(y|x) * second(z|y) into `out`, reusing its capacity
/// (`out` must not alias an input). Runs on the compute kernel
/// (markov/kernels.h) with a thread-local workspace, so the dense scratch
/// (sized by `second`'s largest destination id) is reused across rows and
/// across calls — MC index builds compose thousands of CPTs through here.
void ComposeCpts(const Cpt& first, const Cpt& second, Cpt* out);
Cpt ComposeCpts(const Cpt& first, const Cpt& second);

}  // namespace caldera

#endif  // CALDERA_MARKOV_CPT_H_
