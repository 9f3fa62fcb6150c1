#include "caldera/executor.h"

#include <chrono>
#include <optional>
#include <string>

#include "reg/reg_operator.h"

namespace caldera {

Result<QueryResult> RunCursorPipeline(ArchivedStream* archived,
                                      const RegularQuery& query,
                                      const PlanFactory& factory,
                                      AccessMethodKind label) {
  CALDERA_RETURN_IF_ERROR(query.ValidateAgainst(archived->schema()));
  auto start_clock = std::chrono::steady_clock::now();
  archived->ResetStats();

  CALDERA_ASSIGN_OR_RETURN(CursorPlan plan, factory(archived, query));

  QueryResult result;
  result.method = label;
  if (plan.cursor == nullptr) {
    // An a-priori-empty plan (e.g. stream shorter than the match interval).
    result.stats.plan_summary = "cursor=none (a-priori empty)";
    return result;
  }

  StoredStream* stream = archived->stream();
  McIndex* mc =
      plan.gap_policy == GapPolicy::kExactSpan ? archived->mc() : nullptr;

  RelevantTimestepCursor* cursor = plan.cursor.get();
  RegOperator reg(query, archived->schema());
  uint64_t reg_updates = 0;
  double reg_kernel_seconds = 0.0;
  uint64_t segments = 0;  // Initialize calls == processing segments.
  uint64_t items = 0;     // Cursor items pulled (relevant timesteps).
  uint64_t prev = 0;
  // Every transition and every marginal decodes into one of these,
  // reusing its capacity.
  Cpt transition;
  Distribution marginal;

  // Starts a processing segment at `marginal`. The operator's update count
  // and kernel time reset with it, so bank them first.
  auto begin_segment = [&] {
    if (segments > 0) {
      reg_updates += reg.num_updates();
      reg_kernel_seconds += reg.kernel_seconds();
      reg.Reset();
    }
    ++segments;
    return reg.Initialize(marginal);
  };

  // Pull an item, read its payload, update Reg: the exact read/update
  // interleaving of the monolithic methods. Every storage read and every
  // Reg call is its own statement. The first failed read aborts the query.
  for (;;) {
    CALDERA_ASSIGN_OR_RETURN(std::optional<CursorItem> next, cursor->Next());
    if (!next.has_value()) break;
    const CursorItem item = *next;
    ++items;
    double p = 0.0;
    if (segments == 0 || item.restart) {
      CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(item.time, &marginal));
      p = begin_segment();
    } else if (item.time <= prev) {
      return Status::Internal(
          "cursor violated its contract: non-restart items must strictly "
          "increase in time");
    } else if (item.time == prev + 1) {
      CALDERA_RETURN_IF_ERROR(stream->ReadTransition(item.time, &transition));
      p = reg.Update(transition);
    } else {
      const uint64_t gap = item.time - prev;
      switch (plan.gap_policy) {
        case GapPolicy::kAdjacentOnly:
          return Status::Internal(
              "cursor produced a gap under the adjacent-only gap policy");
        case GapPolicy::kRestart: {
          // No match can span the gap; start a fresh segment.
          CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(item.time, &marginal));
          p = begin_segment();
          break;
        }
        case GapPolicy::kExactSpan: {
          CALDERA_ASSIGN_OR_RETURN(std::shared_ptr<const Cpt> span,
                                   mc->GetSpanCpt(prev, item.time));
          p = reg.UpdateSpanning(*span, gap);
          break;
        }
        case GapPolicy::kIndependent: {
          CALDERA_RETURN_IF_ERROR(stream->ReadMarginal(item.time, &marginal));
          p = reg.UpdateIndependent(marginal);
          break;
        }
        case GapPolicy::kScanThrough:
          // Exact without an MC index: apply every interior transition. The
          // interior timesteps are processed exactly, so they emit too.
          for (uint64_t t = prev + 1; t <= item.time; ++t) {
            CALDERA_RETURN_IF_ERROR(stream->ReadTransition(t, &transition));
            p = reg.Update(transition);
            if (t < item.time) result.signal.push_back({t, p});
          }
          break;
      }
    }
    prev = item.time;
    if (item.emit) result.signal.push_back({item.time, p});
    if (item.observe) cursor->Observe(item.time, p);
  }

  reg_updates += reg.num_updates();
  reg_kernel_seconds += reg.kernel_seconds();

  if (cursor->collects_signal()) {
    for (const auto& [time, prob] : cursor->TakeCollected()) {
      result.signal.push_back({time, prob});
    }
  }

  CursorStats cursor_stats;
  cursor->ContributeStats(items, &cursor_stats);
  result.stats.reg_updates = reg_updates;
  result.stats.relevant_timesteps = cursor_stats.relevant_timesteps;
  result.stats.pruned_candidates = cursor_stats.pruned_candidates;
  switch (plan.gap_policy) {
    case GapPolicy::kAdjacentOnly:
    case GapPolicy::kRestart:
      // Segmented execution: one interval per Initialize.
      result.stats.intervals = segments;
      break;
    case GapPolicy::kExactSpan:
    case GapPolicy::kIndependent:
    case GapPolicy::kScanThrough:
      // Single-segment execution: the paper counts each relevant timestep.
      result.stats.intervals = cursor_stats.relevant_timesteps;
      break;
  }
  result.stats.kernel_seconds = reg_kernel_seconds;
  if (mc != nullptr) {
    result.stats.mc_entry_fetches = mc->entry_fetches();
    result.stats.mc_raw_fetches = mc->raw_fetches();
    result.stats.kernel_seconds += mc->compose_seconds();
    result.stats.span_cache_hits = mc->span_cache_hits();
    result.stats.span_cache_misses = mc->span_cache_misses();
  }
  result.stats.stream_io = stream->IoStats();
  result.stats.index_io = archived->IndexIoStats();
  result.stats.plan_summary = std::string("cursor=") + cursor->name() +
                              " gap=" + GapPolicyName(plan.gap_policy);
  result.stats.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_clock)
          .count();
  return result;
}

Result<QueryResult> RunPipeline(ArchivedStream* archived,
                                const RegularQuery& query,
                                AccessMethodKind method,
                                const PipelineOptions& options) {
  switch (method) {
    case AccessMethodKind::kScan:
      return RunCursorPipeline(archived, query, MakeFullScanPlan, method);
    case AccessMethodKind::kBTree:
      return RunCursorPipeline(archived, query, MakeMergeJoinPlan, method);
    case AccessMethodKind::kTopK: {
      size_t k = options.k;
      double threshold = options.threshold;
      if (threshold < 0 || threshold >= 1.0) {
        return Status::InvalidArgument(
            "threshold must be 0 (top-k mode) or in (0, 1)");
      }
      if (threshold > 0) {
        k = ThresholdCursor::kUnbounded;
      } else if (k == 0) {
        return Status::InvalidArgument("k must be >= 1");
      }
      auto factory = [k, threshold](ArchivedStream* a,
                                    const RegularQuery& q) {
        return MakeThresholdPlan(a, q, k, threshold);
      };
      return RunCursorPipeline(archived, query, factory, method);
    }
    case AccessMethodKind::kMcIndex: {
      auto factory = [](ArchivedStream* a, const RegularQuery& q) {
        return MakeUnionPlan(a, q, GapPolicy::kExactSpan);
      };
      return RunCursorPipeline(archived, query, factory, method);
    }
    case AccessMethodKind::kSemiIndependent: {
      auto factory = [](ArchivedStream* a, const RegularQuery& q) {
        return MakeUnionPlan(a, q, GapPolicy::kIndependent);
      };
      return RunCursorPipeline(archived, query, factory, method);
    }
    case AccessMethodKind::kAuto:
      break;
  }
  return Status::Internal("planner returned kAuto");
}

}  // namespace caldera
