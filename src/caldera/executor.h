#ifndef CALDERA_CALDERA_EXECUTOR_H_
#define CALDERA_CALDERA_EXECUTOR_H_

#include <functional>

#include "caldera/access_method.h"
#include "caldera/archive.h"
#include "caldera/cursor.h"
#include "query/regular_query.h"

namespace caldera {

/// Knobs of the shared execution pipeline (top-k method only).
struct PipelineOptions {
  /// For the top-k method: number of matches to keep (>= 1), or
  /// ThresholdCursor::kUnbounded with a threshold.
  size_t k = 0;
  /// For the top-k method in threshold mode: keep matches above this.
  double threshold = 0.0;
};

/// Builds a CursorPlan for a (stream, query) pair. Deferred so the
/// executor can reset IO counters before the factory probes any index —
/// cursor creation cost is part of the measured execution.
using PlanFactory =
    std::function<Result<CursorPlan>(ArchivedStream*, const RegularQuery&)>;

/// The consumer half of the pipeline, shared by all five access methods:
/// validates the query, builds the plan, runs its cursor through the Reg
/// operator (applying the plan's gap policy on every jump), and owns all
/// ExecStats accounting. `label` is reported as QueryResult::method. A
/// factory may return a plan with a null cursor: an a-priori-empty query
/// (e.g. a stream shorter than the match interval), answered with an empty
/// signal and zero cost.
Result<QueryResult> RunCursorPipeline(ArchivedStream* archived,
                                      const RegularQuery& query,
                                      const PlanFactory& factory,
                                      AccessMethodKind label);

/// Builds the standard plan for `method` (Figure 5(b)'s five algorithms)
/// and runs it through the pipeline. The one entry point for running an
/// access method directly:
///   kScan             Algorithm 1: every timestep.
///   kBTree            Algorithm 2: BT_C merge join, fixed-length only.
///   kTopK             Algorithm 3: TA over BT_P; options.k >= 1 best
///                     matches, or every match above options.threshold in
///                     (0, 1). The signal is sorted by decreasing
///                     probability (ties by time).
///   kMcIndex          Algorithm 4: BT_C union, exact MC-index spans.
///   kSemiIndependent  Algorithm 5: BT_C union, independence across gaps.
/// InvalidArgument for k == 0 without a threshold, or a threshold outside
/// [0, 1).
Result<QueryResult> RunPipeline(ArchivedStream* archived,
                                const RegularQuery& query,
                                AccessMethodKind method,
                                const PipelineOptions& options = {});

}  // namespace caldera

#endif  // CALDERA_CALDERA_EXECUTOR_H_
