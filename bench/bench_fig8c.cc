// Figure 8(c): B+Tree access method performance on increasingly favorable
// synthetic datasets — each curve fixes the fraction of relevant timesteps
// that participate in a candidate query match (100%/50%/25%), sweeping data
// density on the x axis.
//
// Paper shape to reproduce: for a fixed density, lowering the match rate
// proportionally lowers processing time; at the lowest densities the gap
// between 100% and 25% reaches roughly an order of magnitude.

#include <cstdio>

#include "bench_util.h"
#include "caldera/executor.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

int main() {
  std::string root = ScratchDir("fig8c");
  std::printf("# Figure 8(c): B+Tree method, time (ms) vs density, one "
              "column per query-match rate\n");
  std::printf("%-10s %14s %14s %14s\n", "density", "match=100%",
              "match=50%", "match=25%");

  int variant = 0;
  for (double density : {0.01, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    double times[3];
    int i = 0;
    for (double match_rate : {1.0, 0.5, 0.25}) {
      SnippetStreamSpec spec;
      spec.num_snippets = 1000;
      spec.density = density;
      spec.match_rate = match_rate;
      spec.seed = 80;
      auto workload = MakeSnippetStream(spec);
      CALDERA_CHECK_OK(workload.status());
      auto archived = ArchiveStream(root, "v" + std::to_string(variant++),
                                    workload->stream, DiskLayout::kSeparated,
                                    true, false, false);
      RegularQuery query = workload->EnteredRoomFixed();
      times[i++] = TimeBest([&] {
        CALDERA_CHECK_OK(RunPipeline(archived.get(), query,
                                     AccessMethodKind::kBTree).status());
      });
    }
    std::printf("%-10.2f %14.2f %14.2f %14.2f\n", density, times[0] * 1e3,
                times[1] * 1e3, times[2] * 1e3);
  }
  std::printf("# expected shape: each curve falls as density falls; lower "
              "match rates run proportionally faster\n");
  return 0;
}
