#ifndef CALDERA_TESTS_TEST_UTIL_H_
#define CALDERA_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/attribute_index.h"
#include "index/btc_index.h"
#include "index/btp_index.h"
#include "markov/stream.h"
#include "markov/stream_io.h"
#include "markov/synthetic.h"

namespace caldera {
namespace test {

/// Library synthetic generators re-exported under their historic test
/// names.
inline MarkovianStream MakeValidStream(uint64_t length, uint32_t domain,
                                       uint64_t seed,
                                       double edge_prob = 0.5) {
  return MakeRandomStream(length, domain, seed, edge_prob);
}

inline MarkovianStream MakeBandedStream(uint64_t length, uint32_t domain,
                                        uint64_t seed) {
  return MakeBandedRandomWalkStream(length, domain, seed);
}

/// Writes `stream` to `path` + ".stream", then builds a BT_C tree (or, with
/// btc = false, a BT_P tree) over attribute `attr` at `path` from the stored
/// copy, as StreamArchive does.
inline Result<std::unique_ptr<BTree>> BuildTreeFromWritten(
    const MarkovianStream& stream, size_t attr, const std::string& path,
    bool btc = true) {
  CALDERA_RETURN_IF_ERROR(WriteStream(path + ".stream", stream));
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<StoredStream> stored,
                           StoredStream::Open(path + ".stream"));
  return BuildTreeIndex({attr, btc, path}, stored.get());
}

/// RAII scratch directory under the system temp dir. The path includes the
/// process id: ctest -j runs test cases of one binary as concurrent
/// processes, and fixtures reuse one tag per suite, so a fixed path would
/// race.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("caldera_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }

  std::string Path(const std::string& name) const {
    return (path_ / name).string();
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace test
}  // namespace caldera

#endif  // CALDERA_TESTS_TEST_UTIL_H_
