// Ablation benchmarks for Caldera design choices not tied to a specific
// paper figure:
//   1. Buffer-pool capacity vs B+Tree-method latency and page misses.
//   2. Page size vs scan latency.
//   3. MC-index branching factor (alpha) vs variable-length query latency.
//   4. Smoothing truncation threshold vs density and signal fidelity.
//   5. Disk layout for the MC access method (it touches marginals AND CPTs).

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "caldera/executor.h"
#include "rfid/workload.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

int main() {
  std::string root = ScratchDir("ablation");

  SnippetStreamSpec spec;
  spec.num_snippets = 600;
  spec.density = 0.1;
  spec.seed = 120;
  auto workload = MakeSnippetStream(spec);
  CALDERA_CHECK_OK(workload.status());
  RegularQuery fixed = workload->EnteredRoomFixed();
  RegularQuery variable = workload->EnteredRoomVariable();

  // 1. Buffer-pool capacity.
  std::printf("# Ablation 1: buffer-pool pages vs B+Tree method\n");
  std::printf("%-12s %10s %12s %12s\n", "pool-pages", "time-ms", "misses",
              "hit-rate");
  for (size_t pool : {4u, 16u, 64u, 256u, 1024u}) {
    auto archived = ArchiveStream(root, "bp" + std::to_string(pool),
                                  workload->stream, DiskLayout::kSeparated,
                                  true, false, false, pool);
    auto result = RunPipeline(archived.get(), fixed, AccessMethodKind::kBTree);
    CALDERA_CHECK_OK(result.status());
    double t = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived.get(), fixed,
                                   AccessMethodKind::kBTree).status());
    });
    const BufferPoolStats& io = result->stats.stream_io;
    std::printf("%-12zu %10.2f %12llu %11.1f%%\n", pool, t * 1e3,
                static_cast<unsigned long long>(io.misses),
                io.fetches > 0 ? 100.0 * io.hits / io.fetches : 0.0);
  }

  // 2. Page size.
  std::printf("\n# Ablation 2: page size vs naive scan\n");
  std::printf("%-12s %10s %14s\n", "page-bytes", "time-ms", "pages-fetched");
  for (uint32_t page_size : {1024u, 4096u, 16384u}) {
    StreamArchive archive(root + "/ps" + std::to_string(page_size));
    CALDERA_CHECK_OK(archive.CreateStream("s", workload->stream,
                                          DiskLayout::kSeparated,
                                          page_size));
    auto archived = archive.OpenStream("s", 64);
    CALDERA_CHECK_OK(archived.status());
    auto result = RunPipeline(archived->get(), fixed, AccessMethodKind::kScan);
    CALDERA_CHECK_OK(result.status());
    double t = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived->get(), fixed,
                                   AccessMethodKind::kScan).status());
    });
    std::printf("%-12u %10.2f %14llu\n", page_size, t * 1e3,
                static_cast<unsigned long long>(
                    result->stats.stream_io.fetches));
  }

  // 3. MC alpha.
  std::printf("\n# Ablation 3: MC-index alpha vs variable-length query\n");
  std::printf("%-8s %10s %12s %12s\n", "alpha", "time-ms", "index-KiB",
              "fetches");
  for (uint32_t alpha : {2u, 4u, 8u, 16u}) {
    StreamArchive archive(root + "/mc_a" + std::to_string(alpha));
    CALDERA_CHECK_OK(archive.CreateStream("s", workload->stream));
    CALDERA_CHECK_OK(archive.BuildBtc("s", 0));
    CALDERA_CHECK_OK(archive.BuildMc("s", {.alpha = alpha}));
    auto archived = archive.OpenStream("s", 128);
    CALDERA_CHECK_OK(archived.status());
    auto result = RunPipeline(archived->get(), variable,
                              AccessMethodKind::kMcIndex);
    CALDERA_CHECK_OK(result.status());
    double t = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived->get(), variable,
                                   AccessMethodKind::kMcIndex).status());
    });
    std::printf("%-8u %10.2f %12.0f %12llu\n", alpha, t * 1e3,
                (*archived)->mc()->StoredBytes() / 1024.0,
                static_cast<unsigned long long>(result->stats.mc_entry_fetches +
                                                result->stats.mc_raw_fetches));
  }

  // 4. Truncation threshold (smoothing sparsity knob).
  std::printf("\n# Ablation 4: smoothing truncation eps vs density/signal\n");
  std::printf("%-10s %10s %12s %14s\n", "eps", "density", "scan-ms",
              "peak-delta");
  double reference_peak = -1;
  for (double eps : {1e-4, 1e-3, 1e-2}) {
    SnippetStreamSpec eps_spec = spec;
    eps_spec.num_snippets = 200;
    eps_spec.density = 1.0;
    eps_spec.truncate_eps = eps;
    auto w = MakeSnippetStream(eps_spec);
    CALDERA_CHECK_OK(w.status());
    auto archived = ArchiveStream(root, "eps" + std::to_string(int(-std::log10(eps))),
                                  w->stream, DiskLayout::kSeparated, true,
                                  false, false);
    RegularQuery q = w->EnteredRoomFixed();
    double density = MeasuredDensity(w->stream, q);
    auto result = RunPipeline(archived.get(), q, AccessMethodKind::kScan);
    CALDERA_CHECK_OK(result.status());
    double peak = 0;
    for (const TimestepProbability& e : result->signal) {
      peak = std::max(peak, e.prob);
    }
    if (reference_peak < 0) reference_peak = peak;
    double t = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived.get(), q,
                                   AccessMethodKind::kScan).status());
    });
    std::printf("%-10.0e %10.3f %12.2f %14.4f\n", eps, density, t * 1e3,
                std::abs(peak - reference_peak));
  }

  // 5. Layout for the MC access method.
  std::printf("\n# Ablation 5: disk layout for the MC access method\n");
  std::printf("%-14s %10s %14s\n", "layout", "time-ms", "stream-misses");
  for (DiskLayout layout :
       {DiskLayout::kSeparated, DiskLayout::kCoClustered}) {
    auto archived = ArchiveStream(
        root, std::string("mclayout_") + DiskLayoutName(layout),
        workload->stream, layout, true, false, true, 64);
    auto result = RunPipeline(archived.get(), variable,
                              AccessMethodKind::kMcIndex);
    CALDERA_CHECK_OK(result.status());
    double t = TimeBest([&] {
      CALDERA_CHECK_OK(RunPipeline(archived.get(), variable,
                                   AccessMethodKind::kMcIndex).status());
    });
    std::printf("%-14s %10.2f %14llu\n", DiskLayoutName(layout), t * 1e3,
                static_cast<unsigned long long>(
                    result->stats.stream_io.misses));
  }
  return 0;
}
