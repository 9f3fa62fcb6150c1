#ifndef CALDERA_MARKOV_KERNELS_H_
#define CALDERA_MARKOV_KERNELS_H_

#include <cstdint>
#include <vector>

#include "markov/cpt.h"
#include "markov/distribution.h"

namespace caldera {
namespace kernels {

/// Reusable dense scratch for the propagate/compose kernels. The dense and
/// mark arrays are an invariant-zero workspace: every kernel call leaves
/// them fully zeroed again, so a workspace can be shared across any number
/// of calls (but not across threads) without re-clearing. Owning one per
/// operator (RegOperator) or per build/query loop eliminates the
/// per-timestep allocation the AoS path paid.
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

/// out[y] = sum_x in[x] * P(y|x), the Reg operator's inner loop. Identical
/// semantics to Cpt::Propagate but runs over the CSR arrays with a dense
/// scatter/accumulate/re-sparsify instead of sparse gather + sort; entries
/// of the result are sorted by value. The result's entries are built in
/// `buffer` (cleared first), so passing a recycled buffer makes the call
/// allocation-free.
Distribution Propagate(const Cpt& cpt, const Distribution& in,
                       PropagationWorkspace* ws,
                       std::vector<Distribution::Entry> buffer = {});

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
