#ifndef CALDERA_MARKOV_KERNELS_H_
#define CALDERA_MARKOV_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "markov/cpt.h"
#include "markov/distribution.h"

namespace caldera {
namespace kernels {

/// Reusable dense scratch for the propagate/compose kernels. The dense and
/// mark arrays are an invariant-zero workspace: every kernel call leaves
/// them fully zeroed again, so a workspace can be shared across any number
/// of calls (but not across threads) without re-clearing. RegOperator owns
/// one; Cpt::Propagate and ComposeCpts share one per thread. Either way a
/// timestep allocates no scratch.
class PropagationWorkspace {
 public:
  /// Grows the scratch to cover destination ids < `domain`. Cheap when
  /// already large enough.
  void EnsureDomain(uint32_t domain);

  // Kernel-internal buffers; zeroed (dense, mark) or empty (touched)
  // between calls.
  std::vector<double> dense;
  std::vector<uint8_t> mark;
  std::vector<ValueId> touched;
};

namespace detail {

// When the estimated number of scattered contributions is below
// span/kDenseScanFraction the kernels track touched slots explicitly (mark
// bytes + sort) instead of scanning the whole [dst_begin, dst_end) range to
// re-sparsify. This keeps tiny propagations on huge domains
// output-sensitive.
constexpr size_t kDenseScanFraction = 4;

// dense[dsts[j]] += w * probs[j] for one CSR row slice. Destinations within
// a row are strictly ascending (SetRow merges duplicates and Cpt::Parse
// rejects them), so slots are distinct and the updates are
// order-independent.
inline void ScatterRow(double* dense, const ValueId* dsts, const double* probs,
                       size_t n, double w) {
  for (size_t j = 0; j < n; ++j) dense[dsts[j]] += w * probs[j];
}

// Same, recording first-touched slots via mark bytes (sparse mode).
inline void ScatterRowTracked(double* dense, uint8_t* mark,
                              std::vector<ValueId>* touched,
                              const ValueId* dsts, const double* probs,
                              size_t n, double w) {
  for (size_t j = 0; j < n; ++j) {
    ValueId d = dsts[j];
    if (!mark[d]) {
      mark[d] = 1;
      touched->push_back(d);
    }
    dense[d] += w * probs[j];
  }
}

// Drains the touched slots (sparse mode): sorts them, passes each nonzero
// slot to emit(dst, prob) in ascending order, and restores the dense/mark
// zero invariant.
template <typename Emit>
inline void DrainTouched(PropagationWorkspace* ws, Emit emit) {
  std::sort(ws->touched.begin(), ws->touched.end());
  for (ValueId d : ws->touched) {
    double p = ws->dense[d];
    if (p != 0.0) emit(d, p);
    ws->dense[d] = 0.0;
    ws->mark[d] = 0;
  }
  ws->touched.clear();
}

// Scans dense[begin, end) (dense mode): emits nonzero slots and zeroes
// them, restoring the workspace invariant.
template <typename Emit>
inline void DrainScan(double* dense, ValueId begin, ValueId end, Emit emit) {
  for (ValueId i = begin; i < end; ++i) {
    if (dense[i] != 0.0) {
      emit(i, dense[i]);
      dense[i] = 0.0;
    }
  }
}

// Average entries per row, used to estimate scatter volume before choosing
// between touched-tracking and dense-scan re-sparsification.
inline size_t AvgRowLen(const Cpt& cpt) {
  return cpt.num_rows() == 0 ? 0 : cpt.nnz() / cpt.num_rows() + 1;
}

}  // namespace detail

/// out[y] = sum_x in[x] * P(y|x), the one propagation loop: calls
/// emit(y, out[y]) for each nonzero out[y], in ascending y, after a dense
/// scatter/accumulate/re-sparsify over the CSR arrays. The caller consumes
/// each entry as it is emitted (RegOperator routes it straight to its next
/// DFA state), so nothing is staged; Cpt::Propagate collects the entries
/// into a Distribution.
template <typename Emit>
void Propagate(const Cpt& cpt, const Distribution& in,
               PropagationWorkspace* ws, Emit&& emit) {
  if (cpt.empty() || in.empty()) return;
  ws->EnsureDomain(cpt.dst_end());
  const size_t span = cpt.dst_end() - cpt.dst_begin();
  const size_t est =
      std::min(in.support_size(), cpt.num_rows()) * detail::AvgRowLen(cpt);
  const bool sparse_mode = est * detail::kDenseScanFraction < span;

  double* dense = ws->dense.data();
  const ValueId* srcs = cpt.srcs().data();
  const uint32_t* offsets = cpt.offsets().data();
  const ValueId* dsts = cpt.dsts().data();
  const double* probs = cpt.probs().data();
  // Two-pointer merge: input entries and CSR rows are both sorted by id.
  size_t ri = 0;
  const size_t num_rows = cpt.num_rows();
  for (const Distribution::Entry& e : in.entries()) {
    while (ri < num_rows && srcs[ri] < e.value) ++ri;
    if (ri == num_rows) break;
    if (srcs[ri] != e.value) continue;
    const uint32_t b = offsets[ri];
    const uint32_t n = offsets[ri + 1] - b;
    if (sparse_mode) {
      detail::ScatterRowTracked(dense, ws->mark.data(), &ws->touched,
                                dsts + b, probs + b, n, e.prob);
    } else {
      detail::ScatterRow(dense, dsts + b, probs + b, n, e.prob);
    }
  }
  if (sparse_mode) {
    detail::DrainTouched(ws, emit);
  } else {
    detail::DrainScan(dense, cpt.dst_begin(), cpt.dst_end(), emit);
  }
}

/// Chain-rule composition with the same semantics as ComposeCpts: writes
/// CPT(a -> b) with P(z|x) = sum_y first(y|x) * second(z|y) straight into
/// `out`'s arrays, reusing their capacity (`out` must not alias an input).
/// The dense scratch is sized by `second.dst_end()`, which bounds every slot
/// written, and hoisted across all source rows (and across calls, via `ws`).
void Compose(const Cpt& first, const Cpt& second, PropagationWorkspace* ws,
             Cpt* out);

/// The kernels' label for benchmark output: always "scalar", the one
/// portable implementation (nothing is chosen by the host CPU).
const char* Backend();

}  // namespace kernels
}  // namespace caldera

#endif  // CALDERA_MARKOV_KERNELS_H_
