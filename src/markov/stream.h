#ifndef CALDERA_MARKOV_STREAM_H_
#define CALDERA_MARKOV_STREAM_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "markov/cpt.h"
#include "markov/distribution.h"
#include "markov/schema.h"

namespace caldera {

/// An in-memory Markovian stream (Section 2.1): a schema, a marginal
/// distribution per timestep, and a CPT per transition. Following the paper
/// Caldera materializes *every* marginal (not just p_0) alongside the CPTs.
///
/// Indexing convention: `transition(t)` is the CPT *into* timestep t, i.e.
/// C(X_t | X_{t-1}); it is defined for t in [1, length). This matches the
/// paper's `t.cpt` notation in Algorithms 1-5.
class MarkovianStream {
 public:
  MarkovianStream() = default;
  explicit MarkovianStream(StreamSchema schema) : schema_(std::move(schema)) {}

  /// Appends a timestep. The first call may omit `transition` (pass an empty
  /// Cpt); later calls must supply the CPT from the previous timestep.
  void Append(Distribution marginal, Cpt transition);

  uint64_t length() const { return marginals_.size(); }
  bool empty() const { return marginals_.empty(); }

  const StreamSchema& schema() const { return schema_; }

  const Distribution& marginal(uint64_t t) const { return marginals_[t]; }
  const Cpt& transition(uint64_t t) const { return transitions_[t]; }

  Distribution* mutable_marginal(uint64_t t) { return &marginals_[t]; }
  Cpt* mutable_transition(uint64_t t) { return &transitions_[t]; }

  /// Validates the stream's Markovian invariants:
  ///   * every marginal is normalized,
  ///   * every CPT row is stochastic,
  ///   * marginal consistency: marginal(t) == marginal(t-1) * transition(t),
  ///   * every supported source of transition(t) has a row.
  Status Validate(double tol = 1e-6) const;

  /// Applies a value-id permutation to all marginals and CPTs (used by the
  /// synthetic workload generator to relabel rooms in stream snippets).
  /// `perm[old_id] = new_id`; must be a bijection over [0, state_count).
  void RelabelValues(const std::vector<ValueId>& perm);

  /// Appends all timesteps of `other` after this stream, stitching the
  /// boundary with `bridge` = CPT(first state of other | last state of
  /// this). Used to concatenate simulator snippets into long streams.
  Status Concatenate(const MarkovianStream& other, const Cpt& bridge);

  /// Total serialized footprint of all CPTs in bytes (MC-index baseline for
  /// Figure 11(b)).
  uint64_t CptBytes() const;

 private:
  StreamSchema schema_;
  std::vector<Distribution> marginals_;
  std::vector<Cpt> transitions_;  // transitions_[0] is an unused empty Cpt.
};

}  // namespace caldera

#endif  // CALDERA_MARKOV_STREAM_H_
