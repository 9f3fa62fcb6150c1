// Figure 8(b): the three fixed-length access methods on a "real-world"
// stream — 22 different Entered-Room queries against one 28-minute routine
// trace (simulated analog of the paper's volunteer data). Each query
// contributes one point per method at its measured data density.
//
// Paper shape to reproduce: density is bimodal (own office ~1, other rooms
// near 0); the B+Tree method gains >= an order of magnitude at low density;
// the top-k method loses to B+Tree at low density but can win by ~an order
// of magnitude on dense, peaky queries.

#include <cstdio>

#include "bench_util.h"
#include "caldera/executor.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

int main() {
  std::string root = ScratchDir("fig8b");

  RoutineSpec spec;
  spec.length = 1680;  // 28 minutes at 1 Hz, like the paper's Pat trace.
  spec.num_excursions = 6;
  spec.seed = 81;
  auto workload = MakeRoutineStream(spec);
  CALDERA_CHECK_OK(workload.status());

  auto archived =
      ArchiveStream(root, "trace", workload->stream, DiskLayout::kSeparated,
                    true, true, false);

  std::printf("# Figure 8(b): 22 Entered-Room queries on one real-world-"
              "style stream (times in ms; k=1 for top-k)\n");
  std::printf("%-26s %9s %10s %10s %10s\n", "room", "density", "scan",
              "btree", "topk");

  for (uint32_t room : workload->QueryRooms(22)) {
    auto query = workload->EnteredRoom(room, 2);
    CALDERA_CHECK_OK(query.status());
    double density = MeasuredDensity(workload->stream, *query);
    double scan = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived.get(), *query,
                                   AccessMethodKind::kScan).status());
    });
    double btree = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived.get(), *query,
                                   AccessMethodKind::kBTree).status());
    });
    double topk = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived.get(), *query,
                                   AccessMethodKind::kTopK, {.k = 1}).status());
    });
    std::printf("%-26s %9.3f %10.2f %10.2f %10.2f\n",
                workload->schema.label(0, room).c_str(), density, scan * 1e3,
                btree * 1e3, topk * 1e3);
  }
  std::printf("# expected shape: bimodal densities; btree << scan at low "
              "density; topk can beat btree only at high density\n");
  return 0;
}
