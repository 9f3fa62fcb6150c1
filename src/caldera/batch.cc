#include "caldera/batch.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/thread_pool.h"

namespace caldera {

ExecStats BatchResult::TotalStats() const {
  ExecStats total;
  for (const BatchStreamResult& s : streams) total += s.result.stats;
  return total;
}

std::vector<std::pair<std::string, TimestepProbability>>
BatchResult::TopMatches(size_t k, double threshold) const {
  std::vector<std::pair<std::string, TimestepProbability>> all;
  for (const BatchStreamResult& s : streams) {
    for (const TimestepProbability& e : s.result.signal) {
      if (e.prob > threshold) all.emplace_back(s.stream, e);
    }
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second.prob != b.second.prob) return a.second.prob > b.second.prob;
    if (a.first != b.first) return a.first < b.first;
    return a.second.time < b.second.time;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

namespace {

Status WrapStreamError(const std::string& name, const Status& st) {
  return Status(st.code(), "stream '" + name + "': " + st.message());
}

}  // namespace

Result<BatchResult> ExecuteBatch(Caldera* system, const RegularQuery& query,
                                 const BatchOptions& options) {
  std::vector<std::string> streams = options.streams;
  if (streams.empty()) {
    CALDERA_ASSIGN_OR_RETURN(streams, system->archive()->ListStreams());
  }

  size_t num_threads = options.num_threads != 0
                           ? options.num_threads
                           : ThreadPool::DefaultThreadCount();
  num_threads = std::min(num_threads, streams.size());

  if (num_threads <= 1) {
    // Sequential path: identical to the pre-parallel engine, including its
    // stop-at-first-error behavior.
    BatchResult batch;
    batch.streams.reserve(streams.size());
    for (const std::string& name : streams) {
      Result<QueryResult> result = system->Execute(name, query, options.exec);
      if (!result.ok()) return WrapStreamError(name, result.status());
      batch.streams.push_back({name, std::move(*result)});
    }
    return batch;
  }

  // Parallel fan-out, one worker per stream. Each ArchivedStream owns its
  // partition's files and buffer pools, so per-stream state needs no
  // locking — but it is single-threaded, so a name appearing several times
  // in the request is executed by exactly one task (sequentially within
  // it) rather than by racing workers. Slots are preallocated per request
  // index; workers never touch shared batch state.
  std::map<std::string, std::vector<size_t>> indices_by_name;
  for (size_t i = 0; i < streams.size(); ++i) {
    indices_by_name[streams[i]].push_back(i);
  }
  std::vector<Result<QueryResult>> slots(
      streams.size(), Result<QueryResult>(Status::Internal("not executed")));

  {
    ThreadPool pool(num_threads);
    for (const auto& [name, indices] : indices_by_name) {
      const std::string* name_ptr = &name;
      const std::vector<size_t>* indices_ptr = &indices;
      pool.Submit([system, &query, &options, &slots, name_ptr, indices_ptr] {
        for (size_t index : *indices_ptr) {
          slots[index] = system->Execute(*name_ptr, query, options.exec);
        }
      });
    }
    pool.Wait();
  }

  // Deterministic aggregation: request order for results, and on failure
  // the error of the earliest failing stream — exactly what the sequential
  // run would have reported.
  BatchResult batch;
  batch.streams.reserve(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    if (!slots[i].ok()) return WrapStreamError(streams[i], slots[i].status());
    batch.streams.push_back({streams[i], std::move(*slots[i])});
  }
  return batch;
}

}  // namespace caldera
