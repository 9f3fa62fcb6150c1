// Archive-scale benchmark (beyond the paper's figures, supporting its
// Section 3.4.2 physical-schema argument): one Markovian stream per tag,
// partitioned on disk by stream. Querying one tag touches only its own
// partition — cost is independent of how many other tags are archived —
// and a fleet-wide query costs the sum of per-stream costs.

#include <cstdio>

#include "bench_util.h"
#include "caldera/batch.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

int main() {
  std::string root = ScratchDir("scale");
  Caldera system(root);

  // Archive a fleet of tags (the paper's deployment used 58; we scale the
  // count and watch per-tag query cost stay flat).
  std::printf("# Archive-scale: per-tag query cost vs archived tag count\n");
  std::printf("%-10s %16s %18s %16s\n", "tags", "one-tag-ms",
              "fleet-total-ms", "fleet-matches");

  uint32_t archived = 0;
  RegularQuery query;  // Fixed Entered-Room query shared by all tags.
  for (uint32_t fleet : {1u, 4u, 16u, 58u}) {
    for (; archived < fleet; ++archived) {
      SnippetStreamSpec spec;
      spec.num_snippets = 60;
      spec.density = 0.2;
      spec.seed = 500 + archived;
      auto workload = MakeSnippetStream(spec);
      CALDERA_CHECK_OK(workload.status());
      std::string name = "tag" + std::to_string(archived);
      CALDERA_CHECK_OK(
          system.archive()->CreateStream(name, workload->stream));
      CALDERA_CHECK_OK(system.archive()->BuildBtc(name, 0));
      if (archived == 0) query = workload->EnteredRoomFixed();
    }
    // All tags share the same layout, so tag0's query is valid everywhere.
    ExecOptions options;
    options.method = AccessMethodKind::kBTree;

    double one = TimeBest([&] {
      CALDERA_CHECK_OK(system.Execute("tag0", query, options).status());
    });

    BatchOptions batch_options;
    batch_options.exec = options;
    batch_options.num_threads = 1;
    auto batch = ExecuteBatch(&system, query, batch_options);
    CALDERA_CHECK_OK(batch.status());
    size_t matches = batch->TopMatches(1000000, 1e-6).size();
    double fleet_total = TimeBest([&] {
      CALDERA_CHECK_OK(ExecuteBatch(&system, query, batch_options).status());
    });

    std::printf("%-10u %16.3f %18.2f %16zu\n", fleet, one * 1e3,
                fleet_total * 1e3, matches);
  }
  std::printf("# expected: one-tag cost flat in the fleet size (per-stream "
              "partitioning); fleet cost ~linear in tags\n");
  return 0;
}
