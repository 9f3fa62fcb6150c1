#include "caldera/planner.h"

#include <algorithm>
#include <cstdio>

#include "caldera/cursor.h"

namespace caldera {

namespace {
// Above this density the B+Tree method degenerates into a scan with B+ tree
// overhead (Section 4.2.1), so the planner prefers the scan.
constexpr double kDenseCutoff = 0.8;
// Above this density a top-k query benefits from TA pruning (Section 4.2.2).
constexpr double kTopkDensityCutoff = 0.5;

// Stamps the EXPLAIN fields implied by the decided method.
PlanDecision Finish(PlanDecision decision) {
  decision.cursor = PipelineCursorName(decision.method);
  decision.gap_policy = GapPolicyName(PipelineGapPolicy(decision.method));
  return decision;
}
}  // namespace

std::string PlanDecision::Explain() const {
  char density_buf[32];
  std::snprintf(density_buf, sizeof(density_buf), "%.4f", estimated_density);
  std::string out = std::string("method=") + AccessMethodName(method);
  if (!cursor.empty()) out += " cursor=" + cursor;
  if (!gap_policy.empty()) out += " gap=" + gap_policy;
  out += std::string(" density=") + density_buf;
  if (!reason.empty()) out += " reason=" + reason;
  return out;
}

Result<double> EstimateDensity(ArchivedStream* archived,
                               const RegularQuery& query) {
  constexpr uint64_t kSampleLimit = 4096;
  const uint64_t length = archived->length();
  // Empty stream: nothing is relevant, and count/length below must never
  // divide by zero. Zero-posting predicates fall out of the loop naturally:
  // their cursor starts exhausted, so count stays 0 and density is 0.
  if (length == 0) return 0.0;
  double max_density = 0.0;
  for (const Predicate* pred : query.CursorPredicates()) {
    Result<PredicateCursor> cursor = MakePredicateCursor(archived, *pred);
    if (!cursor.ok()) return cursor.status();
    uint64_t count = 0;
    while (cursor->valid() && count < kSampleLimit) {
      ++count;
      CALDERA_RETURN_IF_ERROR(cursor->Next());
    }
    double density = cursor->valid()
                         ? 1.0  // Hit the cap: assume dense.
                         : static_cast<double>(count) / length;
    max_density = std::max(max_density, density);
  }
  return max_density;
}

Result<PlanDecision> PlanQuery(ArchivedStream* archived,
                               const RegularQuery& query, bool want_topk,
                               bool approximation_ok) {
  PlanDecision decision;

  const std::vector<const Predicate*> preds = query.CursorPredicates();
  // A predicate base that is not indexable (e.g. the '*' under a Not)
  // breaks every index method and even density estimation; don't plan one
  // silently, and don't let EstimateDensity fail the whole plan.
  bool indexable = !preds.empty();
  bool has_btc = true;
  for (const Predicate* pred : preds) {
    const Predicate* base = pred->is_negation() ? &pred->base() : pred;
    if (!base->indexable()) indexable = false;
    if (archived->btc(base->attribute()) == nullptr) has_btc = false;
  }
  if (!indexable) {
    decision.method = AccessMethodKind::kScan;
    decision.reason =
        "no indexable predicate bases: full scan is the only option";
    return Finish(std::move(decision));
  }
  if (!has_btc) {
    decision.method = AccessMethodKind::kScan;
    decision.reason = "missing BT_C index: full scan is the only option";
    return Finish(std::move(decision));
  }

  CALDERA_ASSIGN_OR_RETURN(decision.estimated_density,
                           EstimateDensity(archived, query));

  if (query.fixed_length()) {
    bool has_btp = true;
    for (size_t i = 0; i < query.num_links(); ++i) {
      const Predicate& primary = query.link(i).primary;
      if (!primary.indexable() ||
          primary.kind() == Predicate::Kind::kRange ||
          archived->btp(primary.attribute()) == nullptr) {
        has_btp = false;
      }
    }
    if (want_topk && has_btp &&
        decision.estimated_density >= kTopkDensityCutoff) {
      decision.method = AccessMethodKind::kTopK;
      decision.reason = "fixed-length top-k on dense data: TA pruning pays";
      return Finish(std::move(decision));
    }
    if (decision.estimated_density <= kDenseCutoff) {
      decision.method = AccessMethodKind::kBTree;
      decision.reason = "fixed-length on sparse data: cursor intersection";
    } else {
      decision.method = AccessMethodKind::kScan;
      decision.reason =
          "fixed-length on dense data: B+Tree degenerates to a scan";
    }
    return Finish(std::move(decision));
  }

  // Variable-length.
  if (approximation_ok) {
    decision.method = AccessMethodKind::kSemiIndependent;
    decision.reason = "variable-length, approximation allowed";
    return Finish(std::move(decision));
  }
  if (archived->mc() != nullptr) {
    decision.method = AccessMethodKind::kMcIndex;
    decision.reason = "variable-length with MC index";
    return Finish(std::move(decision));
  }
  decision.method = AccessMethodKind::kScan;
  decision.reason = "variable-length without MC index: full scan";
  return Finish(std::move(decision));
}

}  // namespace caldera
