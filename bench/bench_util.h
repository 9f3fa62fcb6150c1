#ifndef CALDERA_BENCH_BENCH_UTIL_H_
#define CALDERA_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>

#include "caldera/archive.h"
#include "caldera/batch.h"
#include "common/logging.h"
#include "markov/stream_io.h"
#include "query/regular_query.h"

namespace caldera {
namespace bench {

/// Fresh scratch directory for one benchmark binary, under the system
/// temp directory ($TMPDIR, else /tmp).
inline std::string ScratchDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "caldera_bench" / name)
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs `fn` `reps` times and returns the best wall-clock seconds (best-of
/// filters scheduler noise; all access methods are deterministic).
inline double TimeBest(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    if (s < best) best = s;
  }
  return best;
}

/// Archives a stream and builds the requested indexes; returns the opened
/// handle. `pool_pages` bounds each file's buffer pool, keeping disk-page
/// traffic meaningful on cached filesystems.
inline std::unique_ptr<ArchivedStream> ArchiveStream(
    const std::string& root, const std::string& name,
    const MarkovianStream& stream, DiskLayout layout, bool btc, bool btp,
    bool mc, size_t pool_pages = 128) {
  StreamArchive archive(root);
  CALDERA_CHECK_OK(archive.CreateStream(name, stream, layout));
  if (btc) CALDERA_CHECK_OK(archive.BuildBtc(name, 0));
  if (btp) CALDERA_CHECK_OK(archive.BuildBtp(name, 0));
  if (mc) CALDERA_CHECK_OK(archive.BuildMc(name, {.alpha = 2}));
  auto opened = archive.OpenStream(name, pool_pages);
  CALDERA_CHECK_OK(opened.status());
  return std::move(*opened);
}

/// Measured data density of a query on a stream: fraction of timesteps
/// carrying support for any cursor predicate (Section 4.1.2).
inline double MeasuredDensity(const MarkovianStream& stream,
                              const RegularQuery& query) {
  uint64_t relevant = 0;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    bool hit = false;
    for (const Predicate* pred : query.CursorPredicates()) {
      const Predicate* base = pred->is_negation() ? &pred->base() : pred;
      for (const Distribution::Entry& e : stream.marginal(t).entries()) {
        if (base->Matches(stream.schema(), e.value)) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    relevant += hit ? 1 : 0;
  }
  return static_cast<double>(relevant) / stream.length();
}

}  // namespace bench
}  // namespace caldera

#endif  // CALDERA_BENCH_BENCH_UTIL_H_
