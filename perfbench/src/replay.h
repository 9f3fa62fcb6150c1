// The traced replay: re-executes one query through the same public calls
// Caldera's executor makes (stream open, planning, the cursor plan
// factories, cursor Next/Observe, StoredStream reads, MC span lookups and
// RegOperator updates under the plan's gap policy) and times each call as
// a span. The untraced measurements never pass through this file.

#ifndef CALDERA_PERFBENCH_REPLAY_H_
#define CALDERA_PERFBENCH_REPLAY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "caldera/system.h"
#include "perf.h"

namespace perf {

/// The layer boundary a span was recorded at.
enum class SpanKind : uint8_t {
  kQuery,   // The whole replayed query (root span).
  kOpen,    // Caldera::GetStream.
  kPlan,    // PlanQuery.
  kCursor,  // Make*Plan factory, cursor Next / Observe.
  kDecode,  // StoredStream::ReadMarginal / ReadTransition.
  kSpan,    // McIndex::GetSpanCpt / TryCachedSpan.
  kReg,     // RegOperator Initialize / Update / UpdateSpanning /
            // UpdateIndependent.
};
inline constexpr size_t kNumSpanKinds = 7;
const char* SpanKindName(SpanKind kind);

/// In-memory span store. Per-kind totals are exact for every span; the
/// span records themselves are kept up to a cap (then only counted) and
/// written out once at the end of the run.
class Tracer {
 public:
  explicit Tracer(size_t max_spans) : max_spans_(max_spans) {}

  /// Opens a root span for a new query and returns its query id.
  uint32_t BeginQuery();
  /// Closes the current root span; returns its duration in ms.
  double EndQuery();

  /// Runs `fn` inside a child span of the current query.
  template <typename Fn>
  auto Time(SpanKind kind, Fn&& fn) {
    const int64_t start = NowNs();
    auto result = fn();
    Record(kind, start, NowNs());
    return result;
  }
  /// Same, for calls without a result.
  template <typename Fn>
  void TimeVoid(SpanKind kind, Fn&& fn) {
    const int64_t start = NowNs();
    fn();
    Record(kind, start, NowNs());
  }

  uint64_t queries() const { return queries_; }
  double total_ms(SpanKind kind) const {
    return static_cast<double>(total_ns_[static_cast<size_t>(kind)]) / 1e6;
  }
  uint64_t calls(SpanKind kind) const {
    return calls_[static_cast<size_t>(kind)];
  }
  uint64_t dropped() const { return dropped_; }
  size_t kept() const { return spans_.size(); }

  /// Writes the kept spans as TSV (query, span, parent, name, start_ns,
  /// end_ns; parent -1 marks a root).
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint32_t query;
    SpanKind kind;
    int64_t parent;  // Index into spans_, or -1.
    int64_t start_ns;
    int64_t end_ns;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  void Record(SpanKind kind, int64_t start, int64_t end);

  size_t max_spans_;
  std::vector<Span> spans_;
  std::array<int64_t, kNumSpanKinds> total_ns_{};
  std::array<uint64_t, kNumSpanKinds> calls_{};
  uint64_t queries_ = 0;
  uint64_t dropped_ = 0;
  int64_t root_ = -1;  // Kept index of the open root span, or -1.
  int64_t root_start_ = 0;
};

/// What a replay computed, for comparison with Execute's QueryResult.
struct ReplayResult {
  caldera::QuerySignal signal;
  uint64_t reg_updates = 0;
  uint64_t relevant_timesteps = 0;
  double ms = 0;  // Root span duration.
};

/// Replays `query` on `stream` as Caldera::Execute(stream, query, options)
/// would run it (kAuto resolves through PlanQuery; PlanQuery is timed for
/// every query, as the cost auto planning pays). Supports the options the
/// benchmark uses: an explicit or auto method, k for top-k, no threshold,
/// no prefetch, no cached-span upgrades.
caldera::Result<ReplayResult> ReplayQuery(caldera::Caldera* system,
                                          const std::string& stream,
                                          const caldera::RegularQuery& query,
                                          const caldera::ExecOptions& options,
                                          Tracer* tracer);

/// True when a replay reproduced Execute: identical signal, Reg update and
/// relevant-timestep counts.
bool ReplayMatches(const ReplayResult& replay,
                   const caldera::QueryResult& executed);

/// Accumulates replay-vs-Execute time and publishes the traced per-layer
/// metrics.
struct TraceTotals {
  double replay_ms = 0;
  double execute_ms = 0;

  void Add(const ReplayResult& replay, double execute_ms_outside) {
    replay_ms += replay.ms;
    execute_ms += execute_ms_outside;
  }
  void Publish(const Tracer& tracer, Report* report) const;
};

}  // namespace perf

#endif  // CALDERA_PERFBENCH_REPLAY_H_
