// Figure 10 (table): algorithm and stream statistics on three real-world-
// style streams, for Entered-Room / Coffee-Room queries of 2, 3 and 4
// links. Reproduces every row of the paper's table:
//   stream length (minutes / timesteps), # relevant timesteps,
//   full-scan time, # query matches, B+Tree time, top-k B+Tree time,
//   (variable-length:) # matches, MC-index time, semi-independent time.
//
// Paper shape to reproduce: the scan slows sharply with extra links (Reg
// cost grows with automaton size) while the indexed methods, which skip
// most Reg updates, gain relative ground on longer queries.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "caldera/executor.h"
#include "caldera/planner.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

namespace {

int CountMatches(const QuerySignal& signal, double threshold = 1e-6) {
  int matches = 0;
  for (const TimestepProbability& e : signal) {
    matches += e.prob > threshold ? 1 : 0;
  }
  return matches;
}

struct TraceSpec {
  const char* person;
  const char* query_kind;  // "Entered-Office" or "Coffee-Room"
  uint64_t length;
  uint64_t seed;
  bool query_own_office;  // Else: a rarely-visited excursion room.
};

}  // namespace

int main() {
  std::string root = ScratchDir("fig10");
  // James: 7.7 min, dense own-office query. Sally: 7.6 min, sparse query.
  // Pat: 28 min, coffee-room-style query on an excursion room.
  const std::vector<TraceSpec> traces = {
      {"James", "Entered-Office", 462, 101, true},
      {"Sally", "Entered-Office", 458, 102, false},
      {"Pat", "Coffee-Room", 1683, 103, false},
  };

  for (const TraceSpec& trace : traces) {
    RoutineSpec spec;
    spec.length = trace.length;
    spec.num_excursions = trace.query_own_office ? 5 : 2;
    spec.seed = trace.seed;
    auto workload = MakeRoutineStream(spec);
    CALDERA_CHECK_OK(workload.status());
    auto archived = ArchiveStream(root, trace.person, workload->stream,
                                  DiskLayout::kSeparated, true, true, true);
    uint32_t room = trace.query_own_office ? workload->own_office
                                           : workload->excursion_rooms[0];

    std::printf("\n=== Stream: %s   Q: %s (%s) ===\n", trace.person,
                trace.query_kind, workload->schema.label(0, room).c_str());
    std::printf("%-34s %10s %10s %10s\n", "# subgoals (links) in query:", "2",
                "3", "4");

    struct Row {
      double v[3];
    };
    uint64_t relevant[3];
    Row scan_ms{}, btree_ms{}, topk_ms{}, mc_cold_ms{}, mc_ms{}, semi_ms{};
    int next_matches[3], before_matches[3];
    uint64_t span_hits[3] = {0, 0, 0};

    for (int i = 0; i < 3; ++i) {
      size_t links = static_cast<size_t>(i) + 2;
      auto fixed = workload->EnteredRoom(room, links, false);
      auto variable = workload->EnteredRoom(room, links, true);
      CALDERA_CHECK_OK(fixed.status());
      CALDERA_CHECK_OK(variable.status());

      relevant[i] = static_cast<uint64_t>(
          MeasuredDensity(workload->stream, *fixed) *
          workload->stream.length());

      // EXPLAIN: what the planner would pick for each query shape.
      auto fixed_plan = PlanQuery(archived.get(), *fixed,
                                  /*want_topk=*/false,
                                  /*approximation_ok=*/false);
      CALDERA_CHECK_OK(fixed_plan.status());
      auto variable_plan = PlanQuery(archived.get(), *variable,
                                     /*want_topk=*/false,
                                     /*approximation_ok=*/false);
      CALDERA_CHECK_OK(variable_plan.status());
      std::printf("EXPLAIN %zu-link fixed:    %s\n", links,
                  fixed_plan->Explain().c_str());
      std::printf("EXPLAIN %zu-link variable: %s\n", links,
                  variable_plan->Explain().c_str());

      auto scan_result = RunPipeline(archived.get(), *fixed,
                                     AccessMethodKind::kScan);
      CALDERA_CHECK_OK(scan_result.status());
      next_matches[i] = CountMatches(scan_result->signal);
      scan_ms.v[i] = TimeBest([&] {
        CALDERA_CHECK_OK(RunPipeline(archived.get(), *fixed,
                                     AccessMethodKind::kScan).status());
      });
      btree_ms.v[i] = TimeBest([&] {
        CALDERA_CHECK_OK(RunPipeline(archived.get(), *fixed,
                                     AccessMethodKind::kBTree).status());
      });
      topk_ms.v[i] = TimeBest([&] {
        CALDERA_CHECK_OK(RunPipeline(archived.get(), *fixed,
                                     AccessMethodKind::kTopK,
                                     {.k = 1}).status());
      });

      auto mc_result = RunPipeline(archived.get(), *variable,
                                   AccessMethodKind::kMcIndex);
      CALDERA_CHECK_OK(mc_result.status());
      before_matches[i] = CountMatches(mc_result->signal);
      // Cold: every span is composed from index entries (the span cache is
      // dropped before each run). Warm: repeated variable-length queries
      // serve spans from the shared cache.
      mc_cold_ms.v[i] = TimeBest([&] {
        archived->span_cache()->Clear();
        CALDERA_CHECK_OK(RunPipeline(archived.get(), *variable,
                                     AccessMethodKind::kMcIndex).status());
      });
      auto warm_result = RunPipeline(archived.get(), *variable,
                                     AccessMethodKind::kMcIndex);
      CALDERA_CHECK_OK(warm_result.status());
      span_hits[i] = warm_result->stats.span_cache_hits;
      mc_ms.v[i] = TimeBest([&] {
        CALDERA_CHECK_OK(RunPipeline(archived.get(), *variable,
                                     AccessMethodKind::kMcIndex).status());
      });
      semi_ms.v[i] = TimeBest([&] {
        CALDERA_CHECK_OK(
            RunPipeline(archived.get(), *variable,
                        AccessMethodKind::kSemiIndependent).status());
      });
    }

    std::printf("%-34s %10.1f %10.1f %10.1f\n", "Stream length (minutes)",
                trace.length / 60.0, trace.length / 60.0,
                trace.length / 60.0);
    std::printf("%-34s %10llu %10llu %10llu\n", "Stream length (timesteps)",
                static_cast<unsigned long long>(workload->stream.length()),
                static_cast<unsigned long long>(workload->stream.length()),
                static_cast<unsigned long long>(workload->stream.length()));
    std::printf("%-34s %10llu %10llu %10llu\n", "# relevant timesteps",
                static_cast<unsigned long long>(relevant[0]),
                static_cast<unsigned long long>(relevant[1]),
                static_cast<unsigned long long>(relevant[2]));
    std::printf("%-34s %10.2f %10.2f %10.2f\n", "Time: Full Scan (ms)",
                scan_ms.v[0] * 1e3, scan_ms.v[1] * 1e3, scan_ms.v[2] * 1e3);
    std::printf("[NEXT]  %-26s %10d %10d %10d\n", "# query matches",
                next_matches[0], next_matches[1], next_matches[2]);
    std::printf("[NEXT]  %-26s %10.2f %10.2f %10.2f\n", "Time: B+Tree (ms)",
                btree_ms.v[0] * 1e3, btree_ms.v[1] * 1e3,
                btree_ms.v[2] * 1e3);
    std::printf("[NEXT]  %-26s %10.2f %10.2f %10.2f\n",
                "Time: Top-K B+Tree (ms)", topk_ms.v[0] * 1e3,
                topk_ms.v[1] * 1e3, topk_ms.v[2] * 1e3);
    std::printf("[BEFORE] %-25s %10d %10d %10d\n", "# query matches",
                before_matches[0], before_matches[1], before_matches[2]);
    std::printf("[BEFORE] %-25s %10.2f %10.2f %10.2f\n",
                "Time: MC Index cold (ms)", mc_cold_ms.v[0] * 1e3,
                mc_cold_ms.v[1] * 1e3, mc_cold_ms.v[2] * 1e3);
    std::printf("[BEFORE] %-25s %10.2f %10.2f %10.2f\n",
                "Time: MC Index warm (ms)", mc_ms.v[0] * 1e3, mc_ms.v[1] * 1e3,
                mc_ms.v[2] * 1e3);
    std::printf("[BEFORE] %-25s %10llu %10llu %10llu\n",
                "Span-cache hits (warm)",
                static_cast<unsigned long long>(span_hits[0]),
                static_cast<unsigned long long>(span_hits[1]),
                static_cast<unsigned long long>(span_hits[2]));
    std::printf("[BEFORE] %-25s %10.2f %10.2f %10.2f\n",
                "Time: Semi-Indep. (ms)", semi_ms.v[0] * 1e3,
                semi_ms.v[1] * 1e3, semi_ms.v[2] * 1e3);
  }
  std::printf("\n# expected shape: scan time grows with links; indexed "
              "methods' advantage grows with links; semi < mc\n");
  return 0;
}
