#include "caldera/batch.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

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

  size_t num_threads =
      options.num_threads != 0
          ? options.num_threads
          : std::max(1u, std::thread::hardware_concurrency());
  num_threads = std::min(num_threads, streams.size());

  // One slot per request, so workers never touch shared batch state. Each
  // Execute borrows its own stream handle, so requests naming the same
  // stream may run at once. With one thread the requests run inline and
  // stop at the first failure; otherwise each worker claims the next
  // unclaimed request until none is left.
  std::vector<Result<QueryResult>> slots(
      streams.size(), Result<QueryResult>(Status::Internal("not executed")));
  auto run = [system, &query, &options, &streams, &slots](size_t i) {
    slots[i] = system->Execute(streams[i], query, options.exec);
  };
  if (num_threads <= 1) {
    for (size_t i = 0; i < streams.size(); ++i) {
      run(i);
      if (!slots[i].ok()) break;
    }
  } else {
    std::atomic<size_t> next{0};
    std::vector<std::jthread> workers;
    workers.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      workers.emplace_back([&run, &next, n = streams.size()] {
        for (size_t i = next++; i < n; i = next++) run(i);
      });
    }
  }  // ~jthread joins every worker.

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
