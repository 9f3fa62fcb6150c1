#include "caldera/cursor.h"

#include <string>
#include <utility>
#include <vector>

namespace caldera {

const char* GapPolicyName(GapPolicy policy) {
  switch (policy) {
    case GapPolicy::kAdjacentOnly:
      return "adjacent-only";
    case GapPolicy::kRestart:
      return "restart";
    case GapPolicy::kExactSpan:
      return "exact-span";
    case GapPolicy::kIndependent:
      return "independent";
    case GapPolicy::kScanThrough:
      return "scan-through";
  }
  return "unknown";
}

Result<PredicateCursor> MakePredicateCursor(ArchivedStream* archived,
                                            const Predicate& pred) {
  const Predicate* base = pred.is_negation() ? &pred.base() : &pred;
  if (!base->indexable()) {
    return Status::FailedPrecondition("predicate '" + pred.name() +
                                      "' is not indexable");
  }
  BTree* tree = archived->btc(base->attribute());
  if (tree == nullptr) {
    return Status::FailedPrecondition(
        "no BT_C index on attribute " + std::to_string(base->attribute()) +
        " of stream " + archived->dir());
  }
  return PredicateCursor::Create(
      tree, base->MatchedAttributeValues(archived->schema()));
}

Result<CursorPlan> MakeFullScanPlan(ArchivedStream* archived,
                                    const RegularQuery& query) {
  (void)query;
  if (archived->length() == 0) {
    return Status::FailedPrecondition("empty stream");
  }
  CursorPlan plan;
  plan.cursor = std::make_unique<FullScanCursor>(archived->length());
  plan.gap_policy = GapPolicy::kAdjacentOnly;
  return plan;
}

Result<CursorPlan> MakeMergeJoinPlan(ArchivedStream* archived,
                                     const RegularQuery& query) {
  if (!query.fixed_length()) {
    return Status::FailedPrecondition(
        "the B+Tree access method handles fixed-length queries only; use "
        "the MC-index or semi-independent method");
  }
  const uint64_t n = query.num_links();
  if (archived->length() < n) {
    // No room for a full match anywhere: an a-priori-empty plan (the
    // executor returns an empty signal without touching the indexes).
    CursorPlan plan;
    plan.gap_policy = GapPolicy::kRestart;
    return plan;
  }

  // One cursor per link whose primary predicate is indexable; unindexed
  // links relax the intersection (Section 3.1).
  std::vector<PredicateCursor> cursors;
  std::vector<uint64_t> offsets;
  for (size_t i = 0; i < query.num_links(); ++i) {
    const Predicate& primary = query.link(i).primary;
    if (!primary.indexable()) continue;
    CALDERA_ASSIGN_OR_RETURN(PredicateCursor cursor,
                             MakePredicateCursor(archived, primary));
    cursors.push_back(std::move(cursor));
    offsets.push_back(i);
  }
  if (cursors.empty()) {
    return Status::FailedPrecondition(
        "no link of query '" + query.name() +
        "' is indexable; use the naive scan");
  }

  CursorPlan plan;
  plan.cursor = std::make_unique<MergeJoinCursor>(
      std::move(cursors), std::move(offsets), n, archived->length());
  plan.gap_policy = GapPolicy::kRestart;
  return plan;
}

Result<CursorPlan> MakeUnionPlan(ArchivedStream* archived,
                                 const RegularQuery& query,
                                 GapPolicy gap_policy) {
  if (gap_policy == GapPolicy::kExactSpan && archived->mc() == nullptr) {
    return Status::FailedPrecondition("stream has no MC index: " +
                                      archived->dir());
  }
  // Cursors on the positive base of every query predicate (primary and
  // loop): this makes "skipped" timesteps provably null-atom steps.
  std::vector<PredicateCursor> cursors;
  for (const Predicate* pred : query.CursorPredicates()) {
    CALDERA_ASSIGN_OR_RETURN(PredicateCursor cursor,
                             MakePredicateCursor(archived, *pred));
    cursors.push_back(std::move(cursor));
  }
  if (cursors.empty()) {
    return Status::FailedPrecondition(
        "query '" + query.name() + "' has no indexable predicate bases");
  }
  CursorPlan plan;
  plan.cursor = std::make_unique<UnionGapCursor>(std::move(cursors));
  plan.gap_policy = gap_policy;
  return plan;
}

Result<CursorPlan> MakeThresholdPlan(ArchivedStream* archived,
                                     const RegularQuery& query, size_t k,
                                     double threshold) {
  if (!query.fixed_length()) {
    return Status::FailedPrecondition(
        "the top-k/threshold B+Tree access method handles fixed-length "
        "queries only");
  }
  const uint64_t n = query.num_links();
  const StreamSchema& schema = archived->schema();

  // One BT_P cursor per link. Every link must be indexable: the TA needs
  // sorted access to every link's marginals.
  std::vector<TopProbCursor> cursors;
  for (size_t i = 0; i < n; ++i) {
    const Predicate& primary = query.link(i).primary;
    if (!primary.indexable()) {
      return Status::FailedPrecondition(
          "top-k method requires every link predicate to be indexable");
    }
    if (primary.kind() == Predicate::Kind::kRange) {
      return Status::FailedPrecondition(
          "top-k method does not support range predicates (Section 3.4.1)");
    }
    BTree* tree = archived->btp(primary.attribute());
    if (tree == nullptr) {
      return Status::FailedPrecondition(
          "no BT_P index on attribute " +
          std::to_string(primary.attribute()));
    }
    CALDERA_ASSIGN_OR_RETURN(
        TopProbCursor cursor,
        TopProbCursor::Create(tree, primary.MatchedAttributeValues(schema)));
    cursors.push_back(std::move(cursor));
  }

  // Predicate marginal probe (line 9 of Algorithm 3) against the stream.
  StoredStream* stream = archived->stream();
  const StreamSchema* schema_ptr = &archived->schema();
  const RegularQuery* query_ptr = &query;
  ThresholdCursor::LinkProbe probe =
      [stream, schema_ptr, query_ptr,
       marginal = Distribution()](size_t link,
                                  uint64_t t) mutable -> Result<double> {
    CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(t, &marginal));
    const Predicate& p = query_ptr->link(link).primary;
    return marginal.MassWhere(
        [&](ValueId state) { return p.Matches(*schema_ptr, state); });
  };

  CursorPlan plan;
  plan.cursor = std::make_unique<ThresholdCursor>(
      std::move(cursors), k, threshold, archived->length(), std::move(probe));
  plan.gap_policy = GapPolicy::kRestart;
  return plan;
}

const char* PipelineCursorName(AccessMethodKind method) {
  switch (method) {
    case AccessMethodKind::kScan:
      return "full-scan";
    case AccessMethodKind::kBTree:
      return "btc-merge-join";
    case AccessMethodKind::kTopK:
      return "btp-threshold";
    case AccessMethodKind::kMcIndex:
    case AccessMethodKind::kSemiIndependent:
      return "btc-union";
    case AccessMethodKind::kAuto:
      break;
  }
  return "";
}

GapPolicy PipelineGapPolicy(AccessMethodKind method) {
  switch (method) {
    case AccessMethodKind::kScan:
      return GapPolicy::kAdjacentOnly;
    case AccessMethodKind::kBTree:
    case AccessMethodKind::kTopK:
      return GapPolicy::kRestart;
    case AccessMethodKind::kMcIndex:
      return GapPolicy::kExactSpan;
    case AccessMethodKind::kSemiIndependent:
      return GapPolicy::kIndependent;
    case AccessMethodKind::kAuto:
      break;
  }
  return GapPolicy::kAdjacentOnly;
}

}  // namespace caldera
