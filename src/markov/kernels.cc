#include "markov/kernels.h"

#include "common/logging.h"

namespace caldera {
namespace kernels {

void PropagationWorkspace::EnsureDomain(uint32_t domain) {
  if (dense.size() < domain) {
    dense.resize(domain, 0.0);
    mark.resize(domain, 0);
  }
}

void Compose(const Cpt& first, const Cpt& second, PropagationWorkspace* ws,
             Cpt* out) {
  CALDERA_CHECK(out != &first && out != &second)
      << "Compose output must not alias an input";
  out->Clear();
  if (first.empty() || second.empty()) return;
  ws->EnsureDomain(second.dst_end());
  const size_t span = second.dst_end() - second.dst_begin();
  const size_t avg = detail::AvgRowLen(second);
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
    const bool sparse_mode =
        (me - mb) * avg * detail::kDenseScanFraction < span;
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
        detail::ScatterRowTracked(dense, ws->mark.data(), &ws->touched,
                                  second_dsts + b, second_probs + b, n,
                                  first.probs()[m]);
      } else {
        detail::ScatterRow(dense, second_dsts + b, second_probs + b, n,
                           first.probs()[m]);
      }
    }
    const size_t before = out->nnz();
    if (sparse_mode) {
      detail::DrainTouched(ws, emit);
    } else {
      detail::DrainScan(dense, second.dst_begin(), second.dst_end(), emit);
    }
    if (out->nnz() != before) out->EndRow(first.srcs()[r]);
  }
}

const char* Backend() { return "scalar"; }

}  // namespace kernels
}  // namespace caldera
