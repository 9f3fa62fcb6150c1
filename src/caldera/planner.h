#ifndef CALDERA_CALDERA_PLANNER_H_
#define CALDERA_CALDERA_PLANNER_H_

#include <string>

#include "caldera/access_method.h"
#include "caldera/archive.h"
#include "query/regular_query.h"

namespace caldera {

/// What the planner decided and why.
struct PlanDecision {
  AccessMethodKind method = AccessMethodKind::kScan;
  /// Estimated data density: fraction of stream timesteps relevant to the
  /// query (Section 4.1.2). Drives method selection.
  double estimated_density = 1.0;
  std::string reason;
  /// EXPLAIN: the producer cursor the chosen method's pipeline plan uses
  /// (e.g. "btc-merge-join") and its gap policy (e.g. "restart").
  std::string cursor;
  std::string gap_policy;

  /// One-line EXPLAIN rendering:
  ///   "method=btree cursor=btc-merge-join gap=restart density=0.1250
  ///    reason=fixed-length on sparse data: cursor intersection"
  std::string Explain() const;
};

/// Estimates the data density of `query` on `archived` by counting BT_C
/// index entries for the query's cursor predicates (capped at 4096
/// entries per predicate for constant-time planning).
Result<double> EstimateDensity(ArchivedStream* archived,
                               const RegularQuery& query);

/// Chooses an access method per the paper's guidance:
///   fixed-length + top-k wanted + dense data  -> top-k B+Tree (4.2.2)
///   fixed-length + sparse data                -> B+Tree
///   fixed-length + dense data                 -> scan (B+Tree degenerates)
///   variable-length + MC index available      -> MC index
///   variable-length + approximation allowed   -> semi-independent
///   otherwise                                 -> scan
Result<PlanDecision> PlanQuery(ArchivedStream* archived,
                               const RegularQuery& query, bool want_topk,
                               bool approximation_ok);

}  // namespace caldera

#endif  // CALDERA_CALDERA_PLANNER_H_
