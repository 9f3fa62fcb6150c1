#ifndef CALDERA_STORAGE_FAULT_INJECTION_FILE_H_
#define CALDERA_STORAGE_FAULT_INJECTION_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/file.h"

namespace caldera {

/// Deterministic fault plan for a FaultInjectionFile. All counters are
/// per-file and 0-based; randomness comes from `seed` only, so a failing
/// test reproduces exactly.
struct FaultInjectionOptions {
  uint64_t seed = 1;

  /// ReadAt calls with index >= this fail with IoError (-1 = never).
  int64_t fail_reads_from = -1;

  /// WriteAt calls with index >= this fail with IoError (-1 = never).
  int64_t fail_writes_from = -1;

  /// When a write fails, first persist a seeded prefix of the data (a torn
  /// write) instead of dropping it entirely.
  bool torn_writes = false;

  /// Sync fails with IoError.
  bool fail_sync = false;

  /// Absolute bit offsets (byte * 8 + bit) flipped in data returned by
  /// ReadAt. The file itself is untouched: this models silent media
  /// corruption that only checksums can catch.
  std::vector<uint64_t> flip_bits;

  /// Seeded Bernoulli probability that any given ReadAt fails with IoError.
  double read_error_prob = 0.0;
};

/// Shared, observable tally of what a fault-injection file actually did.
/// Lives in a shared_ptr so tests can read it after the wrapped file (owned
/// by the code under test) has been destroyed.
struct FaultInjectionCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t injected_read_errors = 0;
  uint64_t injected_write_errors = 0;
  uint64_t flipped_bits = 0;
};

/// A File wrapper that injects deterministic faults: read errors, silent
/// bit flips on the read path, failed or torn writes, failed syncs.
/// Everything else forwards to the wrapped file.
class FaultInjectionFile final : public File {
 public:
  FaultInjectionFile(std::unique_ptr<File> base, FaultInjectionOptions options,
                     std::shared_ptr<FaultInjectionCounters> counters = {});

  Status ReadAt(uint64_t offset, size_t n, char* buf) const override;
  Status WriteAt(uint64_t offset, std::string_view data) override;
  Status Truncate(uint64_t size) override;
  Status Sync() override;
  uint64_t size() const override;
  Status RefreshSize() override;
  const std::string& path() const override;

  const FaultInjectionCounters& counters() const { return *counters_; }

 private:
  std::unique_ptr<File> base_;
  FaultInjectionOptions options_;
  std::shared_ptr<FaultInjectionCounters> counters_;
  mutable Rng rng_;
};

/// RAII test helper: installs a File wrap hook so every file whose path
/// contains `path_substring` is opened through a FaultInjectionFile with
/// `options`. The destructor uninstalls the hook. Counters aggregate across
/// all matched files.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(std::string path_substring,
                       FaultInjectionOptions options);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  const FaultInjectionCounters& counters() const { return *counters_; }

 private:
  std::shared_ptr<FaultInjectionCounters> counters_;
};

}  // namespace caldera

#endif  // CALDERA_STORAGE_FAULT_INJECTION_FILE_H_
