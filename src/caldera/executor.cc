#include "caldera/executor.h"

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "reg/reg_operator.h"

namespace caldera {

namespace {

// One decoded unit of work for the Reg operator: a cursor item with its
// payload (marginal / transition CPT / composed span CPT) already read from
// storage. Decoding is the producer stage of the pipeline — it performs all
// index and record IO — so a Snippet can be consumed without touching disk.
struct Snippet {
  enum class Kind : uint8_t {
    kInitialize,   // First segment: Initialize(marginal).
    kRestart,      // New segment: Reset, then Initialize(marginal).
    kUpdate,       // Adjacent step: Update(transition).
    kSpanning,     // Gap bridged exactly: UpdateSpanning(span, gap).
    kIndependent,  // Gap approximated: UpdateIndependent(marginal).
  };

  Kind kind = Kind::kUpdate;
  uint64_t time = 0;
  uint64_t gap = 1;
  bool emit = true;
  bool observe = false;
  Distribution marginal;
  Cpt transition;
  std::shared_ptr<const Cpt> span;
};

// Producer stage: pulls cursor items and decodes them under the plan's gap
// policy. Owns the previous-timestep state.
class SnippetDecoder {
 public:
  SnippetDecoder(RelevantTimestepCursor* cursor, GapPolicy policy,
                 StoredStream* stream, McIndex* mc)
      : cursor_(cursor), policy_(policy), stream_(stream), mc_(mc) {}

  // Decodes the next cursor item into `batch` (cleared first; one item may
  // decode to several snippets under scan-through). Returns false once the
  // cursor is exhausted. On error the whole execution aborts, matching the
  // monolithic methods (which interleaved reads and updates and bailed on
  // the first failed read).
  Result<bool> DecodeNext(std::vector<Snippet>* batch) {
    batch->clear();
    CALDERA_ASSIGN_OR_RETURN(std::optional<CursorItem> item, cursor_->Next());
    if (!item.has_value()) return false;
    ++items_;
    CALDERA_RETURN_IF_ERROR(Decode(*item, batch));
    return true;
  }

  // Cursor items pulled so far (the default relevant-timestep count).
  uint64_t items() const { return items_; }

 private:
  Status Decode(const CursorItem& item, std::vector<Snippet>* out) {
    Snippet s;
    s.time = item.time;
    s.emit = item.emit;
    s.observe = item.observe;
    if (!started_ || item.restart) {
      s.kind = started_ ? Snippet::Kind::kRestart : Snippet::Kind::kInitialize;
      CALDERA_RETURN_IF_ERROR(stream_->ReadMarginal(item.time, &s.marginal));
      started_ = true;
      prev_ = item.time;
      out->push_back(std::move(s));
      return Status::Ok();
    }
    if (item.time <= prev_) {
      return Status::Internal(
          "cursor violated its contract: non-restart items must strictly "
          "increase in time");
    }
    const uint64_t gap = item.time - prev_;
    prev_ = item.time;
    if (gap == 1) {
      s.kind = Snippet::Kind::kUpdate;
      CALDERA_RETURN_IF_ERROR(
          stream_->ReadTransition(item.time, &s.transition));
      out->push_back(std::move(s));
      return Status::Ok();
    }
    switch (policy_) {
      case GapPolicy::kAdjacentOnly:
        return Status::Internal(
            "cursor produced a gap under the adjacent-only gap policy");
      case GapPolicy::kRestart:
        // No match can span the gap; start a fresh segment.
        s.kind = Snippet::Kind::kRestart;
        CALDERA_RETURN_IF_ERROR(stream_->ReadMarginal(item.time, &s.marginal));
        break;
      case GapPolicy::kExactSpan: {
        s.kind = Snippet::Kind::kSpanning;
        s.gap = gap;
        CALDERA_ASSIGN_OR_RETURN(s.span,
                                 mc_->GetSpanCpt(item.time - gap, item.time));
        break;
      }
      case GapPolicy::kIndependent:
        s.kind = Snippet::Kind::kIndependent;
        CALDERA_RETURN_IF_ERROR(stream_->ReadMarginal(item.time, &s.marginal));
        break;
      case GapPolicy::kScanThrough: {
        // Exact without an MC index: apply every interior transition. The
        // interior timesteps are processed exactly, so they emit too.
        for (uint64_t t = item.time - gap + 1; t < item.time; ++t) {
          Snippet interior;
          interior.kind = Snippet::Kind::kUpdate;
          interior.time = t;
          CALDERA_RETURN_IF_ERROR(
              stream_->ReadTransition(t, &interior.transition));
          out->push_back(std::move(interior));
        }
        s.kind = Snippet::Kind::kUpdate;
        CALDERA_RETURN_IF_ERROR(
            stream_->ReadTransition(item.time, &s.transition));
        break;
      }
    }
    out->push_back(std::move(s));
    return Status::Ok();
  }

  RelevantTimestepCursor* cursor_;
  GapPolicy policy_;
  StoredStream* stream_;
  McIndex* mc_;
  bool started_ = false;
  uint64_t prev_ = 0;
  uint64_t items_ = 0;
};

}  // namespace

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

  // Consumer stage: feeds one decoded snippet to Reg. Touches only the
  // snippet payload and the cursor's feedback hook, never storage.
  auto consume = [&](Snippet& s) {
    double p = 0.0;
    switch (s.kind) {
      case Snippet::Kind::kRestart:
        // num_updates/kernel_seconds reset with the operator; bank them.
        reg_updates += reg.num_updates();
        reg_kernel_seconds += reg.kernel_seconds();
        reg.Reset();
        [[fallthrough]];
      case Snippet::Kind::kInitialize:
        ++segments;
        p = reg.Initialize(s.marginal);
        break;
      case Snippet::Kind::kUpdate:
        p = reg.Update(s.transition);
        break;
      case Snippet::Kind::kSpanning:
        p = reg.UpdateSpanning(*s.span, s.gap);
        break;
      case Snippet::Kind::kIndependent:
        p = reg.UpdateIndependent(s.marginal);
        break;
    }
    if (s.emit) result.signal.push_back({s.time, p});
    if (s.observe) cursor->Observe(s.time, p);
  };

  // Decode one item, consume it, repeat: the exact read/update
  // interleaving of the monolithic methods.
  SnippetDecoder decoder(cursor, plan.gap_policy, stream, mc);
  std::vector<Snippet> batch;
  for (;;) {
    CALDERA_ASSIGN_OR_RETURN(bool more, decoder.DecodeNext(&batch));
    for (Snippet& s : batch) consume(s);
    if (!more) break;
  }

  reg_updates += reg.num_updates();
  reg_kernel_seconds += reg.kernel_seconds();

  if (cursor->collects_signal()) {
    for (const auto& [time, prob] : cursor->TakeCollected()) {
      result.signal.push_back({time, prob});
    }
  }

  CursorStats cursor_stats;
  cursor->ContributeStats(decoder.items(), &cursor_stats);
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

bool ScanFallbackApplies(const Status& st) {
  return st.code() == StatusCode::kCorruption ||
         st.code() == StatusCode::kIoError ||
         st.code() == StatusCode::kFailedPrecondition;
}

Result<QueryResult> ExecutePipelineMethod(ArchivedStream* archived,
                                          const RegularQuery& query,
                                          AccessMethodKind method,
                                          const ExecOptions& options) {
  PipelineOptions popts;
  popts.k = options.k;
  popts.threshold = options.threshold;
  if (method == AccessMethodKind::kTopK && popts.threshold <= 0 &&
      popts.k == 0) {
    popts.k = 1;  // The facade's top-k default.
  }

  auto run = [&](AccessMethodKind m) -> Result<QueryResult> {
    CALDERA_ASSIGN_OR_RETURN(QueryResult result,
                             RunPipeline(archived, query, m, popts));
    // The top-k/threshold cursor already produced its final result set.
    if (m == AccessMethodKind::kTopK) return result;
    if (method == AccessMethodKind::kTopK) {
      // A scan rescuing a top-k query answers it the way the cursor would:
      // matches with prob > max(threshold, 0), best first, at most k of them
      // unless in threshold mode.
      result.signal = TopKOfSignal(
          FilterSignal(result.signal, popts.threshold),
          popts.threshold > 0 ? ThresholdCursor::kUnbounded : popts.k);
      return result;
    }
    // Every other method gets the requested post-filters.
    if (options.threshold > 0) {
      result.signal = FilterSignal(result.signal, options.threshold);
    }
    if (options.k > 0) {
      result.signal = TopKOfSignal(result.signal, options.k);
    }
    return result;
  };

  Result<QueryResult> result = run(method);
  if (!result.ok() && method != AccessMethodKind::kScan &&
      options.fallback_to_scan && ScanFallbackApplies(result.status())) {
    const bool was_corruption =
        result.status().code() == StatusCode::kCorruption;
    result = run(AccessMethodKind::kScan);
    if (result.ok()) {
      ++result->stats.scan_fallbacks;
      if (was_corruption) ++result->stats.corruption_events;
    }
  }
  return result;
}

}  // namespace caldera
