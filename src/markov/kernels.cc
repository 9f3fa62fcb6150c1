#include "markov/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define CALDERA_KERNELS_X86 1
#endif

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

// ---------------------------------------------------------------------------
// Shared scalar building blocks.
// ---------------------------------------------------------------------------

// dense[dsts[j]] += w * probs[j] for one CSR row slice. Destinations within
// a row are strictly ascending (SetRow merges duplicates and Cpt::Parse
// rejects them), so slots are distinct and the updates are
// order-independent.
inline void ScatterRowScalar(double* dense, const ValueId* dsts,
                             const double* probs, size_t n, double w) {
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
inline void DrainScanScalar(double* dense, ValueId begin, ValueId end,
                            Emit emit) {
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

// ---------------------------------------------------------------------------
// AVX2+FMA building blocks.
// ---------------------------------------------------------------------------

#ifdef CALDERA_KERNELS_X86

// dense[dsts[j]] += w * probs[j], four lanes at a time: gather the current
// dense values, FMA, write the lanes back individually (AVX2 has gathers
// but no scatter). Within-row destinations are unique, so lanes never
// collide.
__attribute__((target("avx2,fma"))) void ScatterRowAvx2(
    double* dense, const ValueId* dsts, const double* probs, size_t n,
    double w) {
  const __m256d vw = _mm256_set1_pd(w);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(dsts + j));
    __m256d p = _mm256_loadu_pd(probs + j);
    // Masked gather with an explicit zero source: the all-ones mask makes
    // it identical to the plain gather, but the plain intrinsic's
    // uninitialized pass-through operand trips GCC's -Wmaybe-uninitialized.
    const __m256d ones_mask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(int64_t{-1}));
    __m256d cur = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), dense, idx,
                                           ones_mask, 8);
    __m256d res = _mm256_fmadd_pd(vw, p, cur);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, res);
    dense[dsts[j + 0]] = lanes[0];
    dense[dsts[j + 1]] = lanes[1];
    dense[dsts[j + 2]] = lanes[2];
    dense[dsts[j + 3]] = lanes[3];
  }
  for (; j < n; ++j) dense[dsts[j]] += w * probs[j];
}

// Vectorized re-sparsify: compare four slots against zero at once and emit
// only the set lanes (movemask + ctz). NEQ_UQ so a NaN slot is still
// drained rather than silently left behind.
template <typename Emit>
__attribute__((target("avx2,fma"))) void DrainScanAvx2(
    double* dense, ValueId begin, ValueId end, Emit emit) {
  const __m256d zero = _mm256_setzero_pd();
  ValueId i = begin;
  for (; i + 4 <= end; i += 4) {
    __m256d v = _mm256_loadu_pd(dense + i);
    int m = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_NEQ_UQ));
    while (m != 0) {
      int k = __builtin_ctz(static_cast<unsigned>(m));
      m &= m - 1;
      ValueId d = i + static_cast<ValueId>(k);
      emit(d, dense[d]);
      dense[d] = 0.0;
    }
  }
  DrainScanScalar(dense, i, end, emit);
}

bool DetectAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#endif  // CALDERA_KERNELS_X86
// The scatter and dense drain of one backend: the scalar reference
// (kSimd = false) or AVX2+FMA. Sparse mode is dominated by bookkeeping, not
// arithmetic, so both backends use the tracked scalar scatter there.
template <bool kSimd>
inline void ScatterRow(double* dense, const ValueId* dsts, const double* probs,
                       size_t n, double w) {
#ifdef CALDERA_KERNELS_X86
  if constexpr (kSimd) {
    ScatterRowAvx2(dense, dsts, probs, n, w);
    return;
  }
#endif
  ScatterRowScalar(dense, dsts, probs, n, w);
}

template <bool kSimd, typename Emit>
inline void DrainScan(double* dense, ValueId begin, ValueId end, Emit emit) {
#ifdef CALDERA_KERNELS_X86
  if constexpr (kSimd) {
    DrainScanAvx2(dense, begin, end, emit);
    return;
  }
#endif
  DrainScanScalar(dense, begin, end, emit);
}

// ---------------------------------------------------------------------------
// The kernels, instantiated once per backend.
// ---------------------------------------------------------------------------

using Entries = std::vector<Distribution::Entry>;

template <bool kSimd>
Distribution PropagateImpl(const Cpt& cpt, const Distribution& in,
                           PropagationWorkspace* ws, Entries buffer) {
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
      ScatterRow<kSimd>(dense, dsts + b, probs + b, n, e.prob);
    }
  }

  auto emit = [&buffer](ValueId d, double p) { buffer.push_back({d, p}); };
  if (sparse_mode) {
    DrainTouched(ws, emit);
  } else if constexpr (!kSimd) {
    return Distribution::FromDenseScratch(ws->dense, cpt.dst_begin(),
                                          cpt.dst_end(), std::move(buffer));
  } else {
    DrainScan<kSimd>(dense, cpt.dst_begin(), cpt.dst_end(), emit);
  }
  return Distribution::FromSorted(std::move(buffer));
}

template <bool kSimd>
void ComposeImpl(const Cpt& first, const Cpt& second, PropagationWorkspace* ws,
                 Cpt* out) {
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
        ScatterRow<kSimd>(dense, second_dsts + b, second_probs + b, n,
                          first.probs()[m]);
      }
    }
    const size_t before = out->nnz();
    if (sparse_mode) {
      DrainTouched(ws, emit);
    } else {
      DrainScan<kSimd>(dense, second.dst_begin(), second.dst_end(), emit);
    }
    if (out->nnz() != before) out->EndRow(first.srcs()[r]);
  }
}

// ---------------------------------------------------------------------------
// Runtime dispatch, following the common/crc32c pattern: resolved once per
// process, with an environment (CALDERA_FORCE_SCALAR_KERNELS=1) and test
// (ForceScalar) override.
// ---------------------------------------------------------------------------

struct Dispatch {
  Distribution (*propagate)(const Cpt&, const Distribution&,
                            PropagationWorkspace*, Entries);
  void (*compose)(const Cpt&, const Cpt&, PropagationWorkspace*, Cpt*);
  const char* name;
};

constexpr Dispatch kScalarDispatch = {&PropagateImpl<false>,
                                      &ComposeImpl<false>, "scalar"};
#ifdef CALDERA_KERNELS_X86
constexpr Dispatch kSimdDispatch = {&PropagateImpl<true>, &ComposeImpl<true>,
                                    "avx2+fma"};
#endif

bool SimdSupportedImpl() {
#ifdef CALDERA_KERNELS_X86
  static const bool supported = DetectAvx2Fma();
  return supported;
#else
  return false;
#endif
}

const Dispatch* AutoDispatch() {
#ifdef CALDERA_KERNELS_X86
  if (SimdSupportedImpl()) {
    const char* force = std::getenv("CALDERA_FORCE_SCALAR_KERNELS");
    if (force == nullptr || force[0] == '\0' || force[0] == '0') {
      return &kSimdDispatch;
    }
  }
#endif
  return &kScalarDispatch;
}

std::atomic<const Dispatch*> g_dispatch{nullptr};

const Dispatch* Resolved() {
  const Dispatch* d = g_dispatch.load(std::memory_order_acquire);
  if (d == nullptr) {
    d = AutoDispatch();
    g_dispatch.store(d, std::memory_order_release);
  }
  return d;
}

}  // namespace

Distribution Propagate(const Cpt& cpt, const Distribution& in,
                       PropagationWorkspace* ws, Entries buffer) {
  return Resolved()->propagate(cpt, in, ws, std::move(buffer));
}

void Compose(const Cpt& first, const Cpt& second, PropagationWorkspace* ws,
             Cpt* out) {
  CALDERA_CHECK(out != &first && out != &second)
      << "Compose output must not alias an input";
  Resolved()->compose(first, second, ws, out);
}

const char* Backend() { return Resolved()->name; }

bool SimdEnabled() { return Resolved() != &kScalarDispatch; }

namespace internal {

bool SimdSupported() { return SimdSupportedImpl(); }

void ForceScalar(bool force) {
  g_dispatch.store(force ? &kScalarDispatch : AutoDispatch(),
                   std::memory_order_release);
}

Distribution PropagateScalar(const Cpt& cpt, const Distribution& in,
                             PropagationWorkspace* ws) {
  return PropagateImpl<false>(cpt, in, ws, {});
}

void ComposeScalar(const Cpt& first, const Cpt& second,
                   PropagationWorkspace* ws, Cpt* out) {
  ComposeImpl<false>(first, second, ws, out);
}

Distribution PropagateSimd(const Cpt& cpt, const Distribution& in,
                           PropagationWorkspace* ws) {
#ifdef CALDERA_KERNELS_X86
  return PropagateImpl<true>(cpt, in, ws, {});
#else
  (void)cpt;
  (void)in;
  (void)ws;
  return Distribution();
#endif
}

void ComposeSimd(const Cpt& first, const Cpt& second, PropagationWorkspace* ws,
                 Cpt* out) {
#ifdef CALDERA_KERNELS_X86
  ComposeImpl<true>(first, second, ws, out);
#else
  (void)first;
  (void)second;
  (void)ws;
  out->Clear();
#endif
}

}  // namespace internal
}  // namespace kernels
}  // namespace caldera
