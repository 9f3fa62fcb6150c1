#ifndef CALDERA_CALDERA_BATCH_H_
#define CALDERA_CALDERA_BATCH_H_

#include <string>
#include <vector>

#include "caldera/system.h"

namespace caldera {

/// Result of one stream within a batch execution.
struct BatchStreamResult {
  std::string stream;
  QueryResult result;
};

/// Aggregate over a batch execution. `streams` is always in request order
/// (or ListStreams order), independent of how many threads executed it.
struct BatchResult {
  std::vector<BatchStreamResult> streams;

  /// Field-wise sum of the per-stream ExecStats (elapsed_seconds is total
  /// work across streams, not wall-clock makespan of a parallel run).
  ExecStats TotalStats() const;
  /// Sum of per-stream wall-clock execution times.
  double TotalSeconds() const { return TotalStats().elapsed_seconds; }
  /// All matches across streams above `threshold`, tagged with their
  /// stream, sorted by decreasing probability.
  std::vector<std::pair<std::string, TimestepProbability>> TopMatches(
      size_t k, double threshold = 0.0) const;
};

/// Runs one Regular query against every stream in the archive (or a chosen
/// subset). This is the paper's deployment setting — one Markovian stream
/// per tag, partitioned on disk by stream (Section 3.4.2) — so each
/// execution touches only its own partition's files, the total cost is the
/// sum of per-stream costs, and the requests are embarrassingly parallel:
/// with num_threads > 1 that many worker threads claim requests one at a
/// time, each on its own lent stream handle (a name may appear more than
/// once).
/// Output ordering, per-stream results, and error reporting are
/// deterministic and identical to the sequential run.
///
/// Streams that cannot run the requested method (e.g. a missing or corrupt
/// index) surface as an error unless `exec.fallback_to_scan` lets each one
/// rerun as the scan; a rescued stream reports stats.scan_fallbacks = 1
/// (and stats.corruption_events = 1 when it failed with Corruption), so
/// TotalStats counts the rescued streams.
struct BatchOptions {
  ExecOptions exec;
  /// Restrict to these streams (empty = all archived streams).
  std::vector<std::string> streams;
  /// Worker threads for the fan-out. 0 = hardware concurrency, 1 = run
  /// sequentially on the calling thread (the pre-parallel behavior).
  size_t num_threads = 0;
};

Result<BatchResult> ExecuteBatch(Caldera* system, const RegularQuery& query,
                                 const BatchOptions& options = {});

}  // namespace caldera

#endif  // CALDERA_CALDERA_BATCH_H_
