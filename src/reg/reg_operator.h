#ifndef CALDERA_REG_REG_OPERATOR_H_
#define CALDERA_REG_REG_OPERATOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "markov/cpt.h"
#include "markov/distribution.h"
#include "markov/kernels.h"
#include "markov/schema.h"
#include "markov/stream.h"
#include "query/nfa.h"
#include "query/regular_query.h"

namespace caldera {

/// The Lahar-style Reg operator (Section 3, Figure 5(a)): consumes a
/// Markovian stream timestep by timestep and emits, after each step, the
/// probability that the query is satisfied (a match ends) at that step.
///
/// Internally it maintains the joint distribution
///     mass[d][x] = P(prefix drives the query DFA to state d AND X_t = x)
/// over (DFA state, stream value) pairs. Because the DFA state is a
/// deterministic function of the value trajectory, this joint is exact, and
/// the match probability is the total mass in accepting DFA states.
///
/// All five access methods drive the same operator through four entry
/// points:
///   Initialize(marginal)        first (or first relevant) timestep
///   Update(cpt)                 exact adjacent step (scan / B+Tree methods)
///   UpdateSpanning(cpt, gap)    MC-index step across a skipped span
///   UpdateIndependent(marginal) semi-independent step across a gap
class RegOperator {
 public:
  RegOperator(const RegularQuery& query, const StreamSchema& schema);

  bool initialized() const { return initialized_; }

  /// Seeds the operator with the marginal of the current timestep and
  /// returns the match probability at that timestep.
  double Initialize(const Distribution& marginal);

  /// Advances one timestep using the CPT from the previous timestep; exact.
  double Update(const Cpt& transition);

  /// Advances across `gap` timesteps (gap >= 1) using a single composed CPT
  /// spanning them (from the MC index). Exact when the skipped interior
  /// timesteps carry no mass on any positive query predicate: their symbols
  /// all read as the null atom, whose DFA transition is idempotent, so one
  /// application before propagating through the composed CPT suffices.
  double UpdateSpanning(const Cpt& span, uint64_t gap);

  /// Advances across a gap assuming independence between the previous
  /// relevant timestep and this one (Algorithm 5). Approximate: correlation
  /// across the gap is discarded, but the null-atom collapse (which is
  /// exact) is still applied.
  double UpdateIndependent(const Distribution& marginal);

  /// Forgets all state.
  void Reset();

  /// Number of Update* calls since construction/Reset (the paper's cost
  /// driver: Reg slows exponentially with query links, so skipped updates
  /// dominate the speedups).
  uint64_t num_updates() const { return num_updates_; }

  /// Estimated wall-clock seconds spent propagating mass through CPTs (the
  /// fused propagate-and-route loops of Update/UpdateSpanning) since
  /// construction/Reset. The clock is read on one such update in
  /// kClockSampleEvery and each sample counts that many times, so the
  /// estimate costs almost nothing but is noisy over a handful of updates.
  double kernel_seconds() const { return kernel_seconds_; }

  static constexpr uint64_t kClockSampleEvery = 16;

 private:
  // Entries routed to one DFA state. Every entry point routes its mass
  // into buckets, and FlushBuckets merges them into mass_.
  struct Bucket {
    int dfa;
    std::vector<Distribution::Entry> entries;
    // True while the entries form one strictly ascending run.
    bool sorted;

    void Add(ValueId value, double prob) {
      if (!entries.empty() && entries.back().value >= value) sorted = false;
      entries.push_back({value, prob});
    }
  };

  /// The bucket of DFA state `dfa`, opened (on a recycled buffer) if this
  /// step has none yet.
  Bucket& BucketFor(int dfa);

  /// Routes mass `prob` on stream value `value`, held in DFA state `dfa`,
  /// to the bucket of the state the value's atom leads to. Zero mass is
  /// dropped.
  void Route(int dfa, ValueId value, double prob) {
    if (prob == 0.0) return;
    BucketFor(automaton_.Step(dfa, value)).Add(value, prob);
  }

  /// Propagates every live state's distribution through `cpt`, routing
  /// each emitted entry as it comes, then flushes; returns the
  /// accepting-state mass.
  double PropagateAndRoute(const Cpt& cpt);

  /// The one bucket merge: a single ascending run is kept as it is, and
  /// anything else is sorted with repeated values summed (FromPairs).
  /// Leaves the bucket's buffer empty.
  static Distribution TakeMerged(Bucket* bucket);

  /// Replaces mass_ (recycling its buffers) with the merged buckets, in DFA
  /// order, and returns the accepting-state mass.
  double FlushBuckets();

  /// Merges states of `mass_` through the null-atom transition.
  void CollapseNull();

  /// An empty entry buffer, recycled from a dropped distribution when one
  /// is spare; Recycle clears `dists`, keeping their buffers. Together they
  /// let a steady-state update reuse buffers instead of allocating.
  std::vector<Distribution::Entry> TakeBuffer();
  void Recycle(std::vector<std::pair<int, Distribution>>* dists);

  QueryAutomaton automaton_;
  // Live DFA states and their value distributions, sorted by DFA id.
  std::vector<std::pair<int, Distribution>> mass_;
  // Dense-scratch workspace shared by every propagation this operator
  // performs; sized once per domain.
  kernels::PropagationWorkspace workspace_;
  // The current step's buckets, in the order they were opened.
  std::vector<Bucket> buckets_;
  // Entry buffers of dropped distributions, kept for reuse.
  std::vector<std::vector<Distribution::Entry>> spare_;
  bool initialized_ = false;
  uint64_t num_updates_ = 0;
  double kernel_seconds_ = 0.0;
  // Propagating updates since construction, for the clock sampling. Reset
  // keeps it, so short segments do not all sample their first update.
  uint64_t propagations_ = 0;
};

/// Convenience: runs a full scan of an in-memory stream and returns the
/// match probability at every timestep. Reference implementation used by
/// tests and the example programs.
std::vector<double> RunRegOverStream(const RegularQuery& query,
                                     const MarkovianStream& stream);

}  // namespace caldera

#endif  // CALDERA_REG_REG_OPERATOR_H_
