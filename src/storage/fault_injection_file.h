#ifndef CALDERA_STORAGE_FAULT_INJECTION_FILE_H_
#define CALDERA_STORAGE_FAULT_INJECTION_FILE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/file.h"

namespace caldera {

/// Deterministic fault plan for a FaultInjectionFile. Call indexes are
/// 0-based and counted across every file that shares the plan's counters
/// (all files of one ScopedFaultInjection); randomness comes from `seed`
/// only, so a failing test reproduces exactly.
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

  /// The Sync call with this index fails with IoError; later ones succeed
  /// (-1 = never).
  int64_t fail_sync_at = -1;

  /// The Sync call, or the WriteAt call, with this index crashes the
  /// simulated machine instead (see ScopedFaultInjection::Crash) and fails
  /// (-1 = never).
  int64_t crash_at_sync = -1;
  int64_t crash_at_write = -1;

  /// Probability that a crash keeps an unsynced write, modelling partial
  /// write-back: 0 reverts every write since its file's last Sync, 1
  /// keeps them all (only truncates are lost).
  double crash_keep_prob = 0.0;

  /// Absolute bit offsets (byte * 8 + bit) flipped in data returned by
  /// ReadAt. The file itself is untouched: this models silent media
  /// corruption that only checksums can catch.
  std::vector<uint64_t> flip_bits;

  /// Seeded Bernoulli probability that any given ReadAt fails with IoError.
  double read_error_prob = 0.0;
};

/// Shared, observable tally of what a fault-injection file actually did.
struct FaultInjectionCounters {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t syncs = 0;
  uint64_t injected_read_errors = 0;
  uint64_t injected_write_errors = 0;
  uint64_t flipped_bits = 0;
};

/// The simulated machine behind fault-injection files: their counters,
/// and per path the writes and truncates made since that path's last
/// successful Sync through any handle. Lives in a shared_ptr so tests can
/// read it after the wrapped files (owned by the code under test) have
/// been destroyed.
struct FaultInjectionDisk {
  // One write or truncate, with what it replaced.
  struct Change {
    uint64_t offset = 0;
    std::string before;  // Bytes at `offset` the change overwrote or cut.
    uint64_t old_size = 0;
    bool is_write = false;
    std::string written;  // A write's bytes, re-applied if a crash keeps it.
  };

  /// Reverts every unsynced change, newest first, then re-applies the
  /// writes a seeded draw keeps, oldest first. Afterwards every write,
  /// truncate and sync through a file of this disk fails.
  void Crash(double keep_prob, uint64_t seed);

  FaultInjectionCounters counters;
  std::map<std::string, std::vector<Change>> unsynced;
  bool crashed = false;
  // True while Crash opens files: they must bypass the injection.
  bool reverting = false;
};

/// A File wrapper that injects deterministic faults: read errors, silent
/// bit flips on the read path, failed or torn writes, failed syncs, and
/// crashes that lose unsynced writes. Everything else forwards to the
/// wrapped file.
class FaultInjectionFile final : public File {
 public:
  FaultInjectionFile(std::unique_ptr<File> base, FaultInjectionOptions options,
                     std::shared_ptr<FaultInjectionDisk> disk = {});

  Status ReadAt(uint64_t offset, size_t n, char* buf) const override;
  Status WriteAt(uint64_t offset, std::string_view data) override;
  Status Truncate(uint64_t size) override;
  Status Sync() override;
  uint64_t size() const override;
  Status RefreshSize() override;
  const std::string& path() const override;

  const FaultInjectionCounters& counters() const { return disk_->counters; }

 private:
  // The file's size and its bytes in [offset, end) before a change.
  Result<FaultInjectionDisk::Change> Before(uint64_t offset,
                                            uint64_t end) const;
  // Writes through to base_, logging the change for a later crash.
  Status LoggedWrite(uint64_t offset, std::string_view data);
  Status Crash();

  std::unique_ptr<File> base_;
  FaultInjectionOptions options_;
  std::shared_ptr<FaultInjectionDisk> disk_;
  mutable Rng rng_;
};

/// RAII test helper: installs a File wrap hook so every file whose path
/// contains `path_substring` is opened through a FaultInjectionFile with
/// `options`. The destructor uninstalls the hook. Counters and the unsynced
/// write log are shared by all matched files.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection(std::string path_substring,
                       FaultInjectionOptions options);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  /// Simulates a power loss now: every write and truncate made to a
  /// matched file since that file's last successful Sync is lost, except
  /// the writes `options.crash_keep_prob` keeps. From then on the matched
  /// files fail every write, truncate and sync, as a dead process's would;
  /// files opened after the scope ends are unaffected.
  void Crash();
  bool crashed() const { return disk_->crashed; }

  const FaultInjectionCounters& counters() const { return disk_->counters; }

 private:
  FaultInjectionOptions options_;
  std::shared_ptr<FaultInjectionDisk> disk_;
};

}  // namespace caldera

#endif  // CALDERA_STORAGE_FAULT_INJECTION_FILE_H_
