#ifndef CALDERA_BENCH_BENCH_UTIL_H_
#define CALDERA_BENCH_BENCH_UTIL_H_

#include <filesystem>
#include <string>

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

}  // namespace bench
}  // namespace caldera

#endif  // CALDERA_BENCH_BENCH_UTIL_H_
