// Figure 9(b): the variable-length access methods on real-world-style
// streams — the Kleene-closure versions of the 22 Entered-Room queries of
// Figure 8(b), on the same 28-minute routine trace. The naive-scan column
// is directly comparable with Figure 8(b)'s.
//
// Paper shape to reproduce: the MC index scales inversely with density and
// beats the scan by more than an order of magnitude at low density; the
// semi-independent method gains just under another order of magnitude.

#include <cstdio>

#include "bench_util.h"
#include "caldera/executor.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

int main() {
  std::string root = ScratchDir("fig9b");

  RoutineSpec spec;
  spec.length = 1680;
  spec.num_excursions = 6;
  spec.seed = 81;  // Same trace as Figure 8(b).
  auto workload = MakeRoutineStream(spec);
  CALDERA_CHECK_OK(workload.status());
  auto archived =
      ArchiveStream(root, "trace", workload->stream, DiskLayout::kSeparated,
                    true, false, true);

  std::printf("# Figure 9(b): Kleene versions of the Figure 8(b) queries "
              "(times in ms; MC index alpha=2)\n");
  std::printf("%-26s %9s %10s %10s %10s\n", "room", "density", "scan",
              "mc-index", "semi");

  for (uint32_t room : workload->QueryRooms(22)) {
    auto query = workload->EnteredRoom(room, 2, /*variable=*/true);
    CALDERA_CHECK_OK(query.status());
    double density = MeasuredDensity(workload->stream, *query);
    double scan = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived.get(), *query,
                                   AccessMethodKind::kScan).status());
    });
    double mc = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived.get(), *query,
                                   AccessMethodKind::kMcIndex).status());
    });
    double semi = TimeBest([&] {
      CALDERA_CHECK_OK(
          RunPipeline(archived.get(), *query,
                      AccessMethodKind::kSemiIndependent).status());
    });
    std::printf("%-26s %9.3f %10.2f %10.2f %10.2f\n",
                workload->schema.label(0, room).c_str(), density, scan * 1e3,
                mc * 1e3, semi * 1e3);
  }
  std::printf("# expected shape: mc << scan at low density; semi < mc\n");
  return 0;
}
