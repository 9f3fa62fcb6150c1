#include "caldera/system.h"

#include <cstdio>
#include <vector>

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
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    epoch = state_->epoch;
    auto idle = state_->idle.extract(key);
    if (!idle.empty()) handle = std::move(idle.mapped());
  }
  if (handle == nullptr) {
    // Open outside the lock, so concurrent opens do not serialize.
    CALDERA_ASSIGN_OR_RETURN(handle, archive_.OpenStream(name, pool_pages));
    // Bind the facade's span cache under this epoch, so composed span CPTs
    // are reused across handles and orphaned when the epoch advances.
    handle->AttachSpanCache(span_cache_, epoch);
  }
  // The deleter puts the handle back unless the facade is gone, the epoch
  // moved on, a commit has since grown the stream past the handle, or the
  // slot is filled; then `owned` dies outside the lock.
  return std::shared_ptr<ArchivedStream>(
      handle.release(), [home = std::weak_ptr<State>(state_),
                         key = std::move(key), epoch](ArchivedStream* lent) {
        std::unique_ptr<ArchivedStream> owned(lent);
        std::shared_ptr<State> state = home.lock();
        if (state == nullptr) return;
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->epoch != epoch || !state->IsCurrent(key.first, *lent)) {
          return;
        }
        state->idle.try_emplace(key, std::move(owned));
      });
}

bool Caldera::State::IsCurrent(const std::string& name,
                               const ArchivedStream& handle) const {
  auto it = committed_lengths.find(name);
  return it == committed_lengths.end() || it->second == handle.length();
}

void Caldera::RefreshIdleHandles(const std::string& name,
                                 uint64_t new_length) {
  // Take the stream's idle handles out, advance them outside `mu`, and put
  // back those that reached the committed length. A handle lent now is
  // not here; its deleter drops it, as its length is no longer current.
  std::vector<std::pair<IdleKey, std::unique_ptr<ArchivedStream>>> handles;
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->committed_lengths[name] = new_length;
    epoch = state_->epoch;
    auto it = state_->idle.lower_bound(IdleKey(name, 0));
    while (it != state_->idle.end() && it->first.first == name) {
      handles.emplace_back(it->first, std::move(it->second));
      it = state_->idle.erase(it);
    }
  }
  for (auto& [key, handle] : handles) {
    if (!handle->Refresh().ok()) handle.reset();  // The next open redoes it.
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->epoch != epoch) return;  // Dropped after the lock is released.
  for (auto& [key, handle] : handles) {
    if (handle != nullptr && state_->IsCurrent(name, *handle)) {
      state_->idle.try_emplace(key, std::move(handle));
    }
  }
}

uint64_t Caldera::InvalidateStreams() {
  std::map<IdleKey, std::unique_ptr<ArchivedStream>> dropped;
  std::lock_guard<std::mutex> lock(state_->mu);
  dropped.swap(state_->idle);  // Destroyed after the lock is released.
  return ++state_->epoch;
}

void Caldera::NotifyStreamMutation() {
  InvalidateStreams();
  span_cache_->Clear();
}

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
  // Every commit (and the recovery replay inside Open) advances the idle
  // handles to the new length under the stream's exclusive lock: queries
  // in flight finish against their lent snapshots, and the next GetStream
  // lends a refreshed handle whose cached pages and span CPTs stay warm.
  options.on_commit = [this, stream_name](uint64_t new_length) {
    RefreshIdleHandles(stream_name, new_length);
  };
  return StreamIngestor::Open(archive_.StreamDir(stream_name),
                              std::move(options));
}

uint64_t Caldera::stream_epoch() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->epoch;
}

Result<PlanDecision> Caldera::Plan(const std::string& stream_name,
                                   const RegularQuery& query,
                                   const ExecOptions& options) {
  std::shared_lock<std::shared_mutex> read_guard(
      *StreamMutationLock(stream_name));
  CALDERA_ASSIGN_OR_RETURN(std::shared_ptr<ArchivedStream> archived,
                           GetStream(stream_name, options.pool_pages));
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
  // Shared hold on the stream's mutation lock for the whole execution: an
  // ingest apply (which rewrites record-file header, meta and tail pages and
  // mc.meta in place) or an index rebuild (exclusive holders) cannot change
  // what this query reads mid-flight, so the query sees either the pre- or
  // post-mutation stream, never a mix. The handle is lent to this
  // query alone and stays alive if the streams are invalidated mid-query.
  std::shared_lock<std::shared_mutex> read_guard(
      *StreamMutationLock(stream_name));
  std::string reason = "explicitly requested";
  double density = -1.0;  // < 0: the planner did not run.

  // One strict attempt: lend a handle with every index open, plan, run.
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    CALDERA_ASSIGN_OR_RETURN(std::shared_ptr<ArchivedStream> handle,
                             GetStream(stream_name, options.pool_pages));
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
    CALDERA_ASSIGN_OR_RETURN(
        std::unique_ptr<ArchivedStream> bare,
        ArchivedStream::OpenWithoutIndexes(archive_.StreamDir(stream_name),
                                           options.pool_pages));
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
  // Exclusive: rebuild rewrites index files that open handles read in
  // place. Queries (shared holders) drain first, and the mutation
  // notification lands before any of them can reopen.
  std::unique_lock<std::shared_mutex> guard(
      *StreamMutationLock(stream_name));
  CALDERA_RETURN_IF_ERROR(archive_.RebuildIndexes(stream_name));
  NotifyStreamMutation();
  return Status::Ok();
}

}  // namespace caldera
