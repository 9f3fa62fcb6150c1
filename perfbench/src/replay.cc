#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <shared_mutex>

#include "caldera/cursor.h"
#include "caldera/planner.h"
#include "reg/reg_operator.h"

namespace perf {

using namespace caldera;  // NOLINT

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kOpen:
      return "caldera.open";
    case SpanKind::kPlan:
      return "caldera.plan";
    case SpanKind::kCursor:
      return "index.cursor";
    case SpanKind::kDecode:
      return "storage.decode";
    case SpanKind::kSpan:
      return "index.span";
    case SpanKind::kReg:
      return "reg.update";
  }
  return "unknown";
}

uint32_t Tracer::BeginQuery() {
  const uint32_t id = static_cast<uint32_t>(queries_++);
  root_start_ = NowNs();
  if (spans_.size() < max_spans_) {
    root_ = static_cast<int64_t>(spans_.size());
    spans_.push_back({id, SpanKind::kQuery, -1, root_start_, root_start_});
  } else {
    root_ = -1;
    ++dropped_;
  }
  return id;
}

double Tracer::EndQuery() {
  const int64_t end = NowNs();
  if (root_ >= 0) spans_[static_cast<size_t>(root_)].end_ns = end;
  total_ns_[static_cast<size_t>(SpanKind::kQuery)] += end - root_start_;
  ++calls_[static_cast<size_t>(SpanKind::kQuery)];
  return static_cast<double>(end - root_start_) / 1e6;
}

void Tracer::Record(SpanKind kind, int64_t start, int64_t end) {
  total_ns_[static_cast<size_t>(kind)] += end - start;
  ++calls_[static_cast<size_t>(kind)];
  if (spans_.size() < max_spans_) {
    spans_.push_back({static_cast<uint32_t>(queries_ - 1), kind, root_, start,
                      end});
  } else {
    ++dropped_;
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "query\tspan\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u\t%zu\t%lld\t%s\t%lld\t%lld\n", s.query, i,
                 static_cast<long long>(s.parent), SpanKindName(s.kind),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

Result<CursorPlan> MakePlan(ArchivedStream* archived, const RegularQuery& query,
                            AccessMethodKind method, size_t k) {
  switch (method) {
    case AccessMethodKind::kScan:
      return MakeFullScanPlan(archived, query);
    case AccessMethodKind::kBTree:
      return MakeMergeJoinPlan(archived, query);
    case AccessMethodKind::kTopK:
      return MakeThresholdPlan(archived, query, k == 0 ? 1 : k, 0.0);
    case AccessMethodKind::kMcIndex:
      return MakeUnionPlan(archived, query, GapPolicy::kExactSpan);
    case AccessMethodKind::kSemiIndependent:
      return MakeUnionPlan(archived, query, GapPolicy::kIndependent);
    case AccessMethodKind::kAuto:
      break;
  }
  return Status::Internal("method left unresolved");
}

// The body of ReplayQuery, between the root span's begin and end. Mirrors
// Caldera::Execute -> ExecutePipelineMethod -> RunCursorPipeline with
// prefetch off: one cursor item is decoded and consumed at a time.
Status Replay(Caldera* system, const std::string& name,
              const RegularQuery& query, const ExecOptions& options,
              Tracer* tracer, ReplayResult* out) {
  std::shared_lock<std::shared_mutex> read_guard(
      *system->StreamMutationLock(name));
  Result<std::shared_ptr<ArchivedStream>> opened = tracer->Time(
      SpanKind::kOpen, [&] { return system->GetStream(name, options.pool_pages); });
  CALDERA_RETURN_IF_ERROR(opened.status());
  ArchivedStream* archived = opened->get();

  const bool want_topk = options.k > 0 || options.threshold > 0;
  Result<PlanDecision> decision = tracer->Time(SpanKind::kPlan, [&] {
    return PlanQuery(archived, query, want_topk, options.approximation_ok);
  });
  AccessMethodKind method = options.method;
  if (method == AccessMethodKind::kAuto) {
    CALDERA_RETURN_IF_ERROR(decision.status());
    method = decision->method;
  }

  CALDERA_RETURN_IF_ERROR(query.ValidateAgainst(archived->schema()));
  archived->ResetStats();
  Result<CursorPlan> plan = tracer->Time(SpanKind::kCursor, [&] {
    return MakePlan(archived, query, method, options.k);
  });
  CALDERA_RETURN_IF_ERROR(plan.status());
  RelevantTimestepCursor* cursor = plan->cursor.get();
  if (cursor == nullptr) return Status::Ok();  // A-priori empty.

  StoredStream* stored = archived->stream();
  McIndex* mc =
      plan->gap_policy == GapPolicy::kExactSpan ? archived->mc() : nullptr;
  RegOperator reg(query, archived->schema());
  uint64_t banked_updates = 0;
  bool started = false;
  uint64_t prev = 0;
  uint64_t items = 0;

  auto read_marginal = [&](uint64_t t, Distribution* d) {
    return tracer->Time(SpanKind::kDecode,
                        [&] { return stored->ReadMarginal(t, d); });
  };
  auto read_transition = [&](uint64_t t, Cpt* c) {
    return tracer->Time(SpanKind::kDecode,
                        [&] { return stored->ReadTransition(t, c); });
  };
  auto restart = [&](const Distribution& marginal) {
    return tracer->Time(SpanKind::kReg, [&] {
      banked_updates += reg.num_updates();
      reg.Reset();
      return reg.Initialize(marginal);
    });
  };

  for (;;) {
    Result<std::optional<CursorItem>> next =
        tracer->Time(SpanKind::kCursor, [&] { return cursor->Next(); });
    CALDERA_RETURN_IF_ERROR(next.status());
    if (!next->has_value()) break;
    const CursorItem item = **next;
    ++items;

    double p = 0.0;
    if (!started || item.restart) {
      Distribution marginal;
      CALDERA_RETURN_IF_ERROR(read_marginal(item.time, &marginal));
      if (started) {
        p = restart(marginal);
      } else {
        p = tracer->Time(SpanKind::kReg,
                         [&] { return reg.Initialize(marginal); });
      }
      started = true;
      prev = item.time;
    } else {
      if (item.time <= prev) {
        return Status::Internal("cursor items went backwards in time");
      }
      const uint64_t gap = item.time - prev;
      prev = item.time;
      if (gap == 1) {
        Cpt transition;
        CALDERA_RETURN_IF_ERROR(read_transition(item.time, &transition));
        p = tracer->Time(SpanKind::kReg,
                         [&] { return reg.Update(transition); });
      } else {
        switch (plan->gap_policy) {
          case GapPolicy::kRestart: {
            Distribution marginal;
            CALDERA_RETURN_IF_ERROR(read_marginal(item.time, &marginal));
            p = restart(marginal);
            break;
          }
          case GapPolicy::kExactSpan: {
            Result<std::shared_ptr<const Cpt>> span =
                tracer->Time(SpanKind::kSpan, [&] {
                  return mc->GetSpanCpt(item.time - gap, item.time);
                });
            CALDERA_RETURN_IF_ERROR(span.status());
            p = tracer->Time(SpanKind::kReg, [&] {
              return reg.UpdateSpanning(**span, gap);
            });
            break;
          }
          case GapPolicy::kIndependent: {
            Distribution marginal;
            CALDERA_RETURN_IF_ERROR(read_marginal(item.time, &marginal));
            p = tracer->Time(SpanKind::kReg,
                             [&] { return reg.UpdateIndependent(marginal); });
            break;
          }
          case GapPolicy::kAdjacentOnly:
          case GapPolicy::kScanThrough:
            return Status::Internal(
                "gap under a policy the standard plans do not produce");
        }
      }
    }
    if (item.emit) out->signal.push_back({item.time, p});
    if (item.observe) {
      tracer->TimeVoid(SpanKind::kCursor,
                       [&] { cursor->Observe(item.time, p); });
    }
  }
  banked_updates += reg.num_updates();

  if (cursor->collects_signal()) {
    for (const auto& [time, prob] : cursor->TakeCollected()) {
      out->signal.push_back({time, prob});
    }
  }
  CursorStats cursor_stats;
  cursor->ContributeStats(items, &cursor_stats);
  out->reg_updates = banked_updates;
  out->relevant_timesteps = cursor_stats.relevant_timesteps;
  // The facade's post-filter for non-top-k methods.
  if (method != AccessMethodKind::kTopK && options.k > 0) {
    out->signal = TopKOfSignal(out->signal, options.k);
  }
  return Status::Ok();
}

}  // namespace

Result<ReplayResult> ReplayQuery(Caldera* system, const std::string& stream,
                                 const RegularQuery& query,
                                 const ExecOptions& options, Tracer* tracer) {
  ReplayResult out;
  tracer->BeginQuery();
  Status status = Replay(system, stream, query, options, tracer, &out);
  out.ms = tracer->EndQuery();
  if (!status.ok()) return status;
  return out;
}

bool ReplayMatches(const ReplayResult& replay, const QueryResult& executed) {
  return replay.signal == executed.signal &&
         replay.reg_updates == executed.stats.reg_updates &&
         replay.relevant_timesteps == executed.stats.relevant_timesteps;
}

void TraceTotals::Publish(const Tracer& tracer, Report* report) const {
  const double queries =
      static_cast<double>(std::max<uint64_t>(tracer.queries(), 1));
  auto per_query = [&](SpanKind kind) { return tracer.total_ms(kind) / queries; };
  auto per_call_us = [&](SpanKind kind) {
    const uint64_t calls = tracer.calls(kind);
    return calls == 0 ? 0.0 : tracer.total_ms(kind) * 1e3 / calls;
  };
  report->Set("caldera.open_ms", per_query(SpanKind::kOpen), "ms");
  report->Set("caldera.plan_ms", per_query(SpanKind::kPlan), "ms");
  report->Set("index.cursor_ms", per_query(SpanKind::kCursor), "ms");
  report->Set("storage.decode_ms", per_query(SpanKind::kDecode), "ms");
  report->Set("storage.decode_us_per_step", per_call_us(SpanKind::kDecode),
              "us");
  report->Set("reg.update_ms", per_query(SpanKind::kReg), "ms");
  report->Set("reg.us_per_update", per_call_us(SpanKind::kReg), "us");

  const double root = tracer.total_ms(SpanKind::kQuery);
  double children = 0;
  for (size_t k = 1; k < kNumSpanKinds; ++k) {
    children += tracer.total_ms(static_cast<SpanKind>(k));
  }
  report->Set("index.span_frac",
              root > 0 ? tracer.total_ms(SpanKind::kSpan) / root : 0.0,
              "fraction");
  report->Set("trace.unattributed_frac",
              root > 0 ? (root - children) / root : 0.0, "fraction");
  report->Set("trace.overhead_frac",
              execute_ms > 0 ? replay_ms / execute_ms - 1.0 : 0.0,
              "fraction");
  report->Note("trace: " + std::to_string(tracer.queries()) +
               " replayed queries, " + std::to_string(tracer.kept()) +
               " spans kept, " + std::to_string(tracer.dropped()) +
               " beyond the cap counted only");
}

}  // namespace perf
