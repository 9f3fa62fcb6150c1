#ifndef CALDERA_MARKOV_CPT_H_
#define CALDERA_MARKOV_CPT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "markov/distribution.h"

namespace caldera {

namespace kernels {
struct CsrCpt;
}  // namespace kernels

/// A conditional probability table (CPT): the sparse stochastic matrix
/// relating consecutive (or, via the MC index, distant) Markovian stream
/// timesteps. Row `src` holds P(X_next = dst | X_prev = src).
///
/// Rows are stored sparsely and sorted by source id; each row's entries are
/// sorted by destination id. Sources outside the previous timestep's support
/// need no row.
class Cpt {
 public:
  struct RowEntry {
    ValueId dst;
    double prob;

    bool operator==(const RowEntry&) const = default;
  };
  struct Row {
    ValueId src;
    std::vector<RowEntry> entries;

    bool operator==(const Row&) const = default;
  };

  Cpt() = default;
  // Copies share the (immutable) cached CSR view when one has been built;
  // the copy is taken atomically so concurrent readers of the source are
  // safe. Mutation is single-threaded, like every other Cpt writer path.
  Cpt(const Cpt& other) : rows_(other.rows_), csr_(other.LoadCsr()) {}
  Cpt& operator=(const Cpt& other) {
    if (this != &other) {
      rows_ = other.rows_;
      csr_ = other.LoadCsr();
    }
    return *this;
  }
  Cpt(Cpt&&) = default;
  Cpt& operator=(Cpt&&) = default;

  /// Sets the row for `src`; entries need not be sorted. Replaces any
  /// existing row.
  void SetRow(ValueId src, std::vector<RowEntry> entries);

  /// Builder fast path used by the compose kernels: appends a row whose
  /// `src` is greater than every existing row and whose entries are already
  /// sorted by destination with no duplicates. O(1) amortized, no re-sort.
  void AppendRowSorted(ValueId src, std::vector<RowEntry> entries);

  /// Returns the row for `src`, or nullptr.
  const Row* FindRow(ValueId src) const;

  /// P(dst | src); 0 if the pair is absent.
  double Probability(ValueId src, ValueId dst) const;

  /// Propagates a (possibly sub-stochastic) distribution through this CPT:
  /// out[y] = sum_x in[x] * P(y|x). Mass on sources without a row is
  /// dropped (those sources are outside the stream's support).
  Distribution Propagate(const Distribution& in) const;

  /// Verifies every row sums to 1 within `tol`.
  Status ValidateStochastic(double tol = 1e-6) const;

  size_t num_rows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  /// Total number of nonzero transition entries.
  size_t nnz() const;

  /// Approximate in-memory/on-disk footprint in bytes.
  size_t ByteSize() const;

  /// The flattened CSR view of this table (markov/kernels.h), built lazily
  /// on first use and cached until the next mutation; copies made after it
  /// exists share it. Concurrent first calls on the same object are safe
  /// (the losing builder adopts the winner's view); mutation while another
  /// thread reads is not, matching the rest of the class.
  const kernels::CsrCpt& csr() const;

  bool operator==(const Cpt& other) const { return rows_ == other.rows_; }

  // Binary serialization:
  //   u32 num_rows, then per row: u32 src, u32 count, count*(u32 dst,f64 p).
  void AppendTo(std::string* out) const;
  static Result<Cpt> Parse(std::string_view data, size_t* offset);

 private:
  std::shared_ptr<const kernels::CsrCpt> LoadCsr() const;

  std::vector<Row> rows_;
  mutable std::shared_ptr<const kernels::CsrCpt> csr_;
};

/// Chain-rule composition (Section 3.3.1): given `first` = CPT(a -> m) and
/// `second` = CPT(m -> b), returns CPT(a -> b) with
/// P(z|x) = sum_y first(y|x) * second(z|y).
/// `domain_size` bounds the destination ids (dense scratch space).
/// Runs on the dispatched compute kernel (markov/kernels.h) with a
/// thread-local workspace, so the dense scratch is reused across rows and
/// across calls — MC index builds compose thousands of CPTs through here.
Cpt ComposeCpts(const Cpt& first, const Cpt& second, uint32_t domain_size);

/// The identity CPT on the given support (used as the composition seed).
Cpt IdentityCpt(const std::vector<ValueId>& support);

}  // namespace caldera

#endif  // CALDERA_MARKOV_CPT_H_
