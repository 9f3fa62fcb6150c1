#include "caldera/system.h"

#include <cstdio>

#include "caldera/executor.h"

namespace caldera {

namespace {

// Errors the scan rescue can fix: damaged or missing index artifacts.
// NotFound (no such stream) and InvalidArgument (bad query) are not
// rescuable: the scan would fail identically.
bool ScanFallbackApplies(const Status& st) {
  return st.code() == StatusCode::kCorruption ||
         st.code() == StatusCode::kIoError ||
         st.code() == StatusCode::kFailedPrecondition;
}

// Runs `method` on an open handle and applies the request's k and
// threshold: the top-k cursor's result is final, and any other method's
// signal gets them as post-filters. A scan standing in for an explicit
// kTopK request answers it the way the cursor would: matches with
// probability above max(threshold, 0), best first, at most k (default 1)
// of them unless in threshold mode.
Result<QueryResult> ExecutePipelineMethod(ArchivedStream* archived,
                                          const RegularQuery& query,
                                          AccessMethodKind method,
                                          const ExecOptions& options) {
  const bool topk_request = options.method == AccessMethodKind::kTopK;
  PipelineOptions popts;
  popts.k = options.k;
  popts.threshold = options.threshold;
  // The facade's top-k default. Auto plans top-k only when k or threshold
  // is set, so only an explicit request needs it.
  if (topk_request && popts.threshold <= 0 && popts.k == 0) popts.k = 1;
  CALDERA_ASSIGN_OR_RETURN(QueryResult result,
                           RunPipeline(archived, query, method, popts));
  if (method == AccessMethodKind::kTopK) return result;
  if (topk_request) {
    result.signal = TopKOfSignal(
        FilterSignal(result.signal, popts.threshold),
        popts.threshold > 0 ? ThresholdCursor::kUnbounded : popts.k);
    return result;
  }
  if (options.threshold > 0) {
    result.signal = FilterSignal(result.signal, options.threshold);
  }
  if (options.k > 0) result.signal = TopKOfSignal(result.signal, options.k);
  return result;
}

}  // namespace

Result<std::shared_ptr<ArchivedStream>> Caldera::GetStream(
    const std::string& name, size_t pool_pages) {
  IdleKey key(name, pool_pages);
  std::unique_ptr<ArchivedStream> handle;
  uint64_t epoch;
  uint64_t committed = 0;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    epoch = state_->epoch;
    auto idle = state_->idle.extract(key);
    if (!idle.empty()) handle = std::move(idle.mapped());
    auto it = state_->committed_lengths.find(name);
    if (it != state_->committed_lengths.end()) committed = it->second;
  }
  // An idle handle an ingest commit has left behind advances to the new
  // length; one that fails to refresh is dropped and the open redoes it.
  if (handle != nullptr && handle->length() < committed &&
      !handle->Refresh().ok()) {
    handle.reset();
  }
  if (handle == nullptr) {
    // Open outside the lock, so concurrent opens do not serialize.
    CALDERA_ASSIGN_OR_RETURN(handle, archive_.OpenStream(name, pool_pages));
  }
  // The deleter puts the handle back unless the facade is gone or the epoch
  // moved on; then `owned` dies outside the lock.
  return std::shared_ptr<ArchivedStream>(
      handle.release(), [home = std::weak_ptr<State>(state_),
                         key = std::move(key), epoch](ArchivedStream* lent) {
        std::unique_ptr<ArchivedStream> owned(lent);
        std::shared_ptr<State> state = home.lock();
        if (state == nullptr) return;
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->epoch != epoch) return;
        state->idle.emplace(key, std::move(owned));
      });
}

Result<std::shared_ptr<ArchivedStream>> Caldera::BorrowStream(
    const std::string& name, size_t pool_pages) {
  std::shared_lock<std::shared_mutex> guard(*StreamMutationLock(name));
  return GetStream(name, pool_pages);
}

uint64_t Caldera::InvalidateStreams() {
  std::multimap<IdleKey, std::unique_ptr<ArchivedStream>> dropped;
  std::lock_guard<std::mutex> lock(state_->mu);
  dropped.swap(state_->idle);  // Destroyed after the lock is released.
  return ++state_->epoch;
}

void Caldera::NotifyStreamMutation() { InvalidateStreams(); }

std::shared_mutex* Caldera::StreamMutationLock(
    const std::string& stream_name) {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::unique_ptr<std::shared_mutex>& slot = state_->stream_locks[stream_name];
  if (slot == nullptr) slot = std::make_unique<std::shared_mutex>();
  return slot.get();
}

Result<std::unique_ptr<StreamIngestor>> Caldera::OpenForIngest(
    const std::string& stream_name) {
  if (!archive_.HasStream(stream_name)) {
    return Status::NotFound("no stream named '" + stream_name +
                            "' in archive");
  }
  StreamIngestor::Options options;
  options.apply_mutex = StreamMutationLock(stream_name);
  // Every commit records the new length, for the next GetStream to refresh
  // the handle it lends to. The call a recovering Open makes also retires
  // every handle, span cache and all, and counts the recovery: a query in
  // flight may have cached pages its undo restore rewrote before the redo,
  // and Execute reruns it. `this` is used only in Open.
  auto opening = std::make_shared<bool>(true);
  options.on_commit = [this, state = state_, opening,
                       stream_name](uint64_t new_length) {
    if (*opening) NotifyStreamMutation();
    std::lock_guard<std::mutex> lock(state->mu);
    state->committed_lengths[stream_name] = new_length;
    if (*opening) ++state->recoveries[stream_name];
  };
  Result<std::unique_ptr<StreamIngestor>> ingestor = StreamIngestor::Open(
      archive_.StreamDir(stream_name), std::move(options));
  *opening = false;
  return ingestor;
}

uint64_t Caldera::stream_epoch() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->epoch;
}

uint64_t Caldera::RecoveryCount(const std::string& stream_name) const {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->recoveries.find(stream_name);
  return it == state_->recoveries.end() ? 0 : it->second;
}

Result<PlanDecision> Caldera::Plan(const std::string& stream_name,
                                   const RegularQuery& query,
                                   const ExecOptions& options) {
  CALDERA_ASSIGN_OR_RETURN(std::shared_ptr<ArchivedStream> archived,
                           BorrowStream(stream_name, options.pool_pages));
  if (options.method != AccessMethodKind::kAuto) {
    PlanDecision decision;
    decision.method = options.method;
    decision.reason = "explicitly requested";
    decision.cursor = PipelineCursorName(options.method);
    decision.gap_policy = GapPolicyName(PipelineGapPolicy(options.method));
    return decision;
  }
  return PlanQuery(archived.get(), query,
                   options.k > 0 || options.threshold > 0,
                   options.approximation_ok);
}

Result<QueryResult> Caldera::Execute(const std::string& stream_name,
                                     const RegularQuery& query,
                                     const ExecOptions& options) {
  // A recovering OpenForIngest of this stream counts itself before it
  // releases the stream lock, so a query that may have read its pages
  // mid-redo runs again. Nothing else reruns a query: invalidations and
  // index rebuilds replace or unlink whole files, which a lent handle keeps
  // reading as they were.
  for (;;) {
    const uint64_t recoveries = RecoveryCount(stream_name);
    Result<QueryResult> result = ExecuteOnce(stream_name, query, options);
    std::shared_lock<std::shared_mutex> guard(
        *StreamMutationLock(stream_name));
    if (RecoveryCount(stream_name) == recoveries) return result;
  }
}

Result<QueryResult> Caldera::ExecuteOnce(const std::string& stream_name,
                                         const RegularQuery& query,
                                         const ExecOptions& options) {
  // The query runs unlocked on a handle lent to it alone: no ingest apply
  // rewrites what the handle reads, and it stays alive if the streams are
  // invalidated mid-query.
  std::string reason = "explicitly requested";
  double density = -1.0;  // < 0: the planner did not run.

  // One strict attempt: lend a handle with every index open, plan, run.
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    CALDERA_ASSIGN_OR_RETURN(std::shared_ptr<ArchivedStream> handle,
                             BorrowStream(stream_name, options.pool_pages));
    AccessMethodKind method = options.method;
    if (method == AccessMethodKind::kAuto) {
      CALDERA_ASSIGN_OR_RETURN(
          PlanDecision decision,
          PlanQuery(handle.get(), query,
                    options.k > 0 || options.threshold > 0,
                    options.approximation_ok));
      method = decision.method;
      reason = decision.reason;
      density = decision.estimated_density;
    }
    return ExecutePipelineMethod(handle.get(), query, method, options);
  }();

  // The one rescue: whatever failed (an index that would not open, a
  // density probe, a page read mid-query), rerun the request as the scan
  // over the stream data files alone. Their own errors propagate.
  if (!result.ok() && options.fallback_to_scan &&
      ScanFallbackApplies(result.status())) {
    const Status failure = result.status();
    std::unique_ptr<ArchivedStream> bare;
    {
      std::shared_lock<std::shared_mutex> guard(
          *StreamMutationLock(stream_name));
      CALDERA_ASSIGN_OR_RETURN(
          bare, ArchivedStream::OpenWithoutIndexes(
                    archive_.StreamDir(stream_name), options.pool_pages));
    }
    result = ExecutePipelineMethod(bare.get(), query, AccessMethodKind::kScan,
                                   options);
    if (result.ok()) {
      result->stats.scan_fallbacks = 1;
      result->stats.corruption_events =
          failure.code() == StatusCode::kCorruption ? 1 : 0;
    }
    reason = "rescued by scan after " + failure.ToString();
    density = -1.0;
  }
  if (!result.ok()) return result.status();

  // EXPLAIN plumbing: prepend the method that ran and append the planner's
  // view to the executor's cursor/gap summary.
  result->plan_reason = reason;
  std::string summary =
      std::string("method=") + AccessMethodName(result->method);
  if (!result->stats.plan_summary.empty()) {
    summary += " " + result->stats.plan_summary;
  }
  if (density >= 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " density=%.4f", density);
    summary += buf;
  }
  summary += " reason=" + reason;
  result->stats.plan_summary = std::move(summary);
  return result;
}

Status Caldera::RebuildIndexes(const std::string& stream_name) {
  // Exclusive: no handle opens or refreshes while the index files are
  // missing or half written, and the mutation notification lands before
  // the next borrow. Queries in flight keep reading the unlinked files.
  std::unique_lock<std::shared_mutex> guard(
      *StreamMutationLock(stream_name));
  CALDERA_RETURN_IF_ERROR(archive_.RebuildIndexes(stream_name));
  NotifyStreamMutation();
  return Status::Ok();
}

}  // namespace caldera
