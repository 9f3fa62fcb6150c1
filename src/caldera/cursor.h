#ifndef CALDERA_CALDERA_CURSOR_H_
#define CALDERA_CALDERA_CURSOR_H_

#include <memory>

#include "caldera/access_method.h"
#include "caldera/archive.h"
#include "index/timestep_cursor.h"
#include "query/regular_query.h"

namespace caldera {

/// How the shared executor advances Reg across a gap (previous relevant
/// timestep p, next relevant timestep t, gap = t - p > 1).
enum class GapPolicy : uint8_t {
  /// Gaps cannot occur: the cursor yields adjacent timesteps only
  /// (full scan). A gap is an internal error.
  kAdjacentOnly,
  /// Reset Reg and re-Initialize at t: no match can span the gap (the
  /// merge-join cursor's merged intervals, top-k candidate intervals).
  kRestart,
  /// Exact spanning update through the MC index's composed CPT
  /// (Algorithm 4).
  kExactSpan,
  /// Independence approximation from the marginal at t (Algorithm 5).
  kIndependent,
  /// Exact without an MC index: read and apply every interior transition
  /// p+1 .. t, emitting each processed timestep (a scan restricted to the
  /// cursor's neighborhoods — the hybrid the pipeline enables).
  kScanThrough,
};

const char* GapPolicyName(GapPolicy policy);

/// Opens a chronological cursor over the timesteps relevant to `pred` (its
/// positive base for negations) using the stream's BT_C index on the
/// predicate's attribute. FailedPrecondition when that index is missing.
Result<PredicateCursor> MakePredicateCursor(ArchivedStream* archived,
                                            const Predicate& pred);

/// The producer half of an execution plan: a relevant-timestep cursor plus
/// the gap policy the executor applies between its items.
struct CursorPlan {
  std::unique_ptr<RelevantTimestepCursor> cursor;
  GapPolicy gap_policy = GapPolicy::kAdjacentOnly;
};

/// Cursor factories — one per access method. Each validates the
/// index/query preconditions its algorithm needs and reports the same
/// FailedPrecondition errors the monolithic methods did.

/// Algorithm 1: every timestep. FailedPrecondition on an empty stream.
Result<CursorPlan> MakeFullScanPlan(ArchivedStream* archived,
                                    const RegularQuery& query);

/// Algorithm 2: BT_C merge-join over the indexable links, restart per
/// merged interval. Fixed-length queries only.
Result<CursorPlan> MakeMergeJoinPlan(ArchivedStream* archived,
                                     const RegularQuery& query);

/// Algorithms 4/5: BT_C union over all predicate bases. The caller picks
/// the gap policy (exact span vs. independence vs. scan-through).
Result<CursorPlan> MakeUnionPlan(ArchivedStream* archived,
                                 const RegularQuery& query,
                                 GapPolicy gap_policy);

/// Algorithm 3: Threshold-Algorithm walk over per-link BT_P cursors.
/// Top-k mode (k >= 1, threshold 0) or threshold mode
/// (k = ThresholdCursor::kUnbounded, threshold in (0,1)).
Result<CursorPlan> MakeThresholdPlan(ArchivedStream* archived,
                                     const RegularQuery& query, size_t k,
                                     double threshold);

/// EXPLAIN helpers: the cursor / gap policy the standard plan for `method`
/// uses ("" / kAdjacentOnly for kAuto).
const char* PipelineCursorName(AccessMethodKind method);
GapPolicy PipelineGapPolicy(AccessMethodKind method);

}  // namespace caldera

#endif  // CALDERA_CALDERA_CURSOR_H_
