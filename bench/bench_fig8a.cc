// Figure 8(a): worst-case performance of the B+Tree access method vs the
// naive stream scan, on synthetic ~30k-timestep snippet streams, for both
// disk layouts, as data density varies. "Worst case" = every relevant
// timestep participates in a candidate match (match rate 100%).
//
// Paper shape to reproduce: at low density the B+Tree method beats the scan
// by 1-2 orders of magnitude; as density -> 1 it degenerates into a scan
// with index overhead. Both methods run faster on the separated layout.

#include <cstdio>

#include "bench_util.h"
#include "caldera/executor.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

int main() {
  std::string root = ScratchDir("fig8a");
  std::printf("# Figure 8(a): B+Tree vs naive scan, separated vs "
              "co-clustered layout (times in ms, logscale in the paper)\n");
  std::printf("%-10s %12s %12s %12s %12s %10s\n", "density", "scan-sep",
              "scan-co", "btree-sep", "btree-co", "speedup");

  for (double density : {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0}) {
    SnippetStreamSpec spec;
    spec.num_snippets = 1000;  // ~30k timesteps (8h at 1 Hz in the paper).
    spec.density = density;
    spec.match_rate = 1.0;  // Worst case.
    spec.seed = 8;
    auto workload = MakeSnippetStream(spec);
    CALDERA_CHECK_OK(workload.status());
    RegularQuery query = workload->EnteredRoomFixed();

    double times[4];
    int slot = 0;
    for (DiskLayout layout :
         {DiskLayout::kSeparated, DiskLayout::kCoClustered}) {
      std::string name = "d" + std::to_string(static_cast<int>(density * 100)) +
                         (layout == DiskLayout::kSeparated ? "sep" : "co");
      auto archived = ArchiveStream(root, name, workload->stream, layout,
                                    /*btc=*/true, /*btp=*/false, /*mc=*/false);
      times[slot] = TimeBest([&] {
        CALDERA_CHECK_OK(RunPipeline(archived.get(), query,
                                     AccessMethodKind::kScan).status());
      });
      times[slot + 2] = TimeBest([&] {
        CALDERA_CHECK_OK(RunPipeline(archived.get(), query,
                                     AccessMethodKind::kBTree).status());
      });
      ++slot;
    }
    std::printf("%-10.2f %12.2f %12.2f %12.2f %12.2f %9.1fx\n", density,
                times[0] * 1e3, times[1] * 1e3, times[2] * 1e3,
                times[3] * 1e3, times[0] / times[2]);
  }
  std::printf("# expected shape: speedup ~1-2 orders of magnitude at low "
              "density, ~1x at density 1.0; sep <= co for both methods\n");
  return 0;
}
