#ifndef CALDERA_MARKOV_SYNTHETIC_H_
#define CALDERA_MARKOV_SYNTHETIC_H_

#include <cstdint>

#include "markov/stream.h"

namespace caldera {

/// Synthetic Markovian-stream generators used by tests and benchmarks.
/// Both always produce streams satisfying MarkovianStream::Validate.

/// A fully random stream: each timestep's CPT rows pick random sparse
/// stochastic successors anywhere in the domain; marginals are propagated
/// from a random point mass. Supports tend toward the full domain, so
/// query relevance is dense — good for stressing exactness, bad for
/// modelling sparse sensors.
MarkovianStream MakeRandomStream(uint64_t length, uint32_t domain,
                                 uint64_t seed, double edge_prob = 0.5);

/// A "banded" random walk: transitions move only between neighboring value
/// ids and supports are truncated each step (like sample-based smoothing),
/// so supports stay local and value-specific predicates have realistic
/// gaps. Long-span CPT products are genuinely wide (bandwidth grows with
/// the span), which exercises the MC index's composition cost.
MarkovianStream MakeBandedRandomWalkStream(uint64_t length, uint32_t domain,
                                           uint64_t seed,
                                           double truncate_eps = 1e-3);

/// The same walk with a band that grows with the domain: each step moves up
/// to max(1, domain / 32) value ids either way, so CPT rows, and the
/// long-span products the MC index composes, widen with the state count.
/// At fewer than 64 states it is MakeBandedRandomWalkStream.
MarkovianStream MakeScaledBandWalkStream(uint64_t length, uint32_t domain,
                                         uint64_t seed,
                                         double truncate_eps = 1e-3);

}  // namespace caldera

#endif  // CALDERA_MARKOV_SYNTHETIC_H_
