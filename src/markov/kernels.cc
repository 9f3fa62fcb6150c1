#include "markov/kernels.h"

#include <algorithm>

#include "common/logging.h"

namespace caldera {
namespace kernels {

void PropagationWorkspace::EnsureDomain(uint32_t domain) {
  if (dense.size() < domain) {
    dense.resize(domain, 0.0);
    mark.resize(domain, 0);
  }
}

namespace {

// When the estimated number of scattered contributions is below span/kDenseScanFraction
// the kernels track touched slots explicitly (mark bytes + sort) instead of
// scanning the whole [dst_begin, dst_end) range to re-sparsify. This keeps
// tiny propagations on huge domains output-sensitive.
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

}  // namespace

Distribution Propagate(const Cpt& cpt, const Distribution& in,
                       PropagationWorkspace* ws,
                       std::vector<Distribution::Entry> buffer) {
  buffer.clear();
  if (cpt.empty() || in.empty()) {
    return Distribution::FromSorted(std::move(buffer));
  }
  ws->EnsureDomain(cpt.dst_end());
  const size_t span = cpt.dst_end() - cpt.dst_begin();
  const size_t est = std::min(in.support_size(), cpt.num_rows()) * AvgRowLen(cpt);
  const bool sparse_mode = est * kDenseScanFraction < span;

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
      ScatterRowTracked(dense, ws->mark.data(), &ws->touched, dsts + b,
                        probs + b, n, e.prob);
    } else {
      ScatterRow(dense, dsts + b, probs + b, n, e.prob);
    }
  }

  auto emit = [&buffer](ValueId d, double p) { buffer.push_back({d, p}); };
  if (sparse_mode) {
    DrainTouched(ws, emit);
  } else {
    DrainScan(dense, cpt.dst_begin(), cpt.dst_end(), emit);
  }
  return Distribution::FromSorted(std::move(buffer));
}

void Compose(const Cpt& first, const Cpt& second, PropagationWorkspace* ws,
             Cpt* out) {
  CALDERA_CHECK(out != &first && out != &second)
      << "Compose output must not alias an input";
  out->Clear();
  if (first.empty() || second.empty()) return;
  ws->EnsureDomain(second.dst_end());
  const size_t span = second.dst_end() - second.dst_begin();
  const size_t avg = AvgRowLen(second);
  double* dense = ws->dense.data();
  const size_t second_rows = second.num_rows();
  const ValueId* second_srcs = second.srcs().data();
  const uint32_t* second_offsets = second.offsets().data();
  const ValueId* second_dsts = second.dsts().data();
  const double* second_probs = second.probs().data();
  auto emit = [out](ValueId d, double p) { out->PushEntry(d, p); };

  for (size_t r = 0; r < first.num_rows(); ++r) {
    const uint32_t mb = first.offsets()[r];
    const uint32_t me = first.offsets()[r + 1];
    const bool sparse_mode = (me - mb) * avg * kDenseScanFraction < span;
    // Mids of this row are sorted, as are second's row sources: merge.
    size_t si = 0;
    for (uint32_t m = mb; m < me; ++m) {
      const ValueId mid = first.dsts()[m];
      while (si < second_rows && second_srcs[si] < mid) ++si;
      if (si == second_rows) break;
      if (second_srcs[si] != mid) continue;
      const uint32_t b = second_offsets[si];
      const uint32_t n = second_offsets[si + 1] - b;
      if (sparse_mode) {
        ScatterRowTracked(dense, ws->mark.data(), &ws->touched,
                          second_dsts + b, second_probs + b, n,
                          first.probs()[m]);
      } else {
        ScatterRow(dense, second_dsts + b, second_probs + b, n,
                   first.probs()[m]);
      }
    }
    const size_t before = out->nnz();
    if (sparse_mode) {
      DrainTouched(ws, emit);
    } else {
      DrainScan(dense, second.dst_begin(), second.dst_end(), emit);
    }
    if (out->nnz() != before) out->EndRow(first.srcs()[r]);
  }
}

const char* Backend() { return "scalar"; }

}  // namespace kernels
}  // namespace caldera
