#ifndef CALDERA_CALDERA_VERIFY_H_
#define CALDERA_CALDERA_VERIFY_H_

#include <cstdint>
#include <string>

#include "caldera/archive.h"
#include "common/status.h"

namespace caldera {

/// What the verifier covered.
struct VerifyReport {
  uint64_t timesteps_checked = 0;
  uint64_t btc_entries_checked = 0;
  uint64_t btp_entries_checked = 0;
  uint64_t mc_entries_checked = 0;

  std::string ToString() const;
};

/// Deep-checks an archived stream and every index built for it:
///   * the stream parses end-to-end, marginals are normalized, CPT rows are
///     stochastic, marginal(t) == marginal(t-1) * cpt(t);
///   * every BT_C/BT_P tree satisfies its structural invariants, contains
///     exactly one entry per (attribute value, timestep) of the marginal
///     support, with the correct probability — and nothing else;
///   * eight sampled MC-index entries per level equal the product of the
///     raw CPTs they claim to span.
/// Probabilities must agree within 1e-6. Returns the first corruption
/// found as a Status; on success fills `report`.
Status VerifyArchivedStream(ArchivedStream* archived, VerifyReport* report);

}  // namespace caldera

#endif  // CALDERA_CALDERA_VERIFY_H_
