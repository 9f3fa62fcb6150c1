#ifndef CALDERA_CALDERA_ACCESS_METHOD_H_
#define CALDERA_CALDERA_ACCESS_METHOD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"

namespace caldera {

/// One output tuple of a Regular query: the probability that the query is
/// satisfied (a match ends) at `time` (Section 2.2).
struct TimestepProbability {
  uint64_t time;
  double prob;

  bool operator==(const TimestepProbability&) const = default;
};

/// The query signal. Exact access methods report every processed timestep;
/// timesteps they provably skipped have probability zero.
using QuerySignal = std::vector<TimestepProbability>;

/// Which Ex implementation ran (Figure 5(b)).
enum class AccessMethodKind : uint8_t {
  kAuto = 0,
  kScan,             ///< Algorithm 1: naive full stream scan.
  kBTree,            ///< Algorithm 2: BT_C cursor intersection.
  kTopK,             ///< Algorithm 3: TA over BT_P.
  kMcIndex,          ///< Algorithm 4: MC-index span skipping.
  kSemiIndependent,  ///< Algorithm 5: approximate gap independence.
};

const char* AccessMethodName(AccessMethodKind kind);

/// Cost counters reported by every access method.
struct ExecStats {
  uint64_t reg_updates = 0;        ///< Reg operator initialize/update calls.
  uint64_t relevant_timesteps = 0; ///< Index-reported relevant timesteps.
  uint64_t intervals = 0;          ///< Candidate intervals processed.
  uint64_t pruned_candidates = 0;  ///< Top-k candidates pruned before Reg.
  uint64_t mc_entry_fetches = 0;   ///< MC-index entries fetched.
  uint64_t mc_raw_fetches = 0;     ///< Raw CPTs fetched for MC residues.
  /// Executions whose failed attempt, rescued by the scan, was a
  /// Corruption (0 or 1 per execution; ExecOptions::fallback_to_scan).
  uint64_t corruption_events = 0;
  /// Executions rescued by the scan (0 or 1 per execution).
  uint64_t scan_fallbacks = 0;
  uint64_t span_cache_hits = 0;    ///< Composed span CPTs served from cache.
  uint64_t span_cache_misses = 0;  ///< Span lookups that had to compose.
  BufferPoolStats stream_io;       ///< Page traffic on the stream files.
  BufferPoolStats index_io;        ///< Page traffic on index files.
  /// Wall seconds in the propagate and compose kernels: the MC index's
  /// composition time plus the Reg operator's sampled estimate of its
  /// propagate-and-route loops (one update in 16 is timed and counts 16
  /// times), so short queries report it coarsely.
  double kernel_seconds = 0.0;
  double elapsed_seconds = 0.0;    ///< Wall-clock execution time.
  /// EXPLAIN line for this execution: chosen method, producer cursor, gap
  /// policy, and (through the facade) the planner's density estimate and
  /// decision reason.
  std::string plan_summary;

  /// Field-wise accumulation, used to roll up per-stream stats into batch
  /// totals (elapsed_seconds sums too: it is aggregate work, not makespan).
  ExecStats& operator+=(const ExecStats& o) {
    reg_updates += o.reg_updates;
    relevant_timesteps += o.relevant_timesteps;
    intervals += o.intervals;
    pruned_candidates += o.pruned_candidates;
    mc_entry_fetches += o.mc_entry_fetches;
    mc_raw_fetches += o.mc_raw_fetches;
    corruption_events += o.corruption_events;
    scan_fallbacks += o.scan_fallbacks;
    span_cache_hits += o.span_cache_hits;
    span_cache_misses += o.span_cache_misses;
    stream_io += o.stream_io;
    index_io += o.index_io;
    kernel_seconds += o.kernel_seconds;
    elapsed_seconds += o.elapsed_seconds;
    // Aggregates keep the first summary seen (batch roll-ups span methods).
    if (plan_summary.empty()) plan_summary = o.plan_summary;
    return *this;
  }
};

/// Result of one query execution.
struct QueryResult {
  AccessMethodKind method = AccessMethodKind::kAuto;
  QuerySignal signal;
  ExecStats stats;
  /// Why this method ran: the planner's decision reason for kAuto,
  /// "explicitly requested" otherwise. Set by the Caldera facade; empty
  /// when a method runner is called directly.
  std::string plan_reason;
};

/// Returns the entries of `signal` with prob > threshold, useful for event
/// detection (Figure 4: "Bob is entering an office if p > 0.3").
QuerySignal FilterSignal(const QuerySignal& signal, double threshold);

/// Returns the top-k entries of `signal` by probability, descending.
QuerySignal TopKOfSignal(const QuerySignal& signal, size_t k);

}  // namespace caldera

#endif  // CALDERA_CALDERA_ACCESS_METHOD_H_
