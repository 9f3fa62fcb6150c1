#include "storage/fault_injection_file.h"

#include <algorithm>
#include <filesystem>
#include <utility>

namespace caldera {

namespace {

Status CrashedError(const std::string& path) {
  return Status::IoError("simulated crash: " + path + " is gone with it");
}

}  // namespace

void FaultInjectionDisk::Crash(double keep_prob, uint64_t seed) {
  if (crashed) return;
  reverting = true;
  Rng rng(seed);
  for (auto& [path, changes] : unsynced) {
    Result<std::unique_ptr<File>> file = File::Open(path);
    if (!file.ok()) continue;  // Removed since: nothing left to revert.
    std::vector<bool> keep(changes.size(), false);
    for (size_t i = 0; i < changes.size(); ++i) {
      keep[i] =
          changes[i].is_write && keep_prob > 0 && rng.NextBool(keep_prob);
    }
    // Back to the synced image, then forward through the survivors.
    for (size_t i = changes.size(); i > 0; --i) {
      const Change& change = changes[i - 1];
      if (!change.before.empty()) {
        (void)(*file)->WriteAt(change.offset, change.before);
      }
      (void)(*file)->Truncate(change.old_size);
    }
    for (size_t i = 0; i < changes.size(); ++i) {
      if (keep[i]) {
        (void)(*file)->WriteAt(changes[i].offset, changes[i].written);
      }
    }
  }
  unsynced.clear();
  reverting = false;
  crashed = true;
}

FaultInjectionFile::FaultInjectionFile(std::unique_ptr<File> base,
                                       FaultInjectionOptions options,
                                       std::shared_ptr<FaultInjectionDisk> disk)
    : base_(std::move(base)),
      options_(std::move(options)),
      disk_(disk ? std::move(disk) : std::make_shared<FaultInjectionDisk>()),
      rng_(options_.seed) {}

Status FaultInjectionFile::ReadAt(uint64_t offset, size_t n, char* buf) const {
  FaultInjectionCounters& counters = disk_->counters;
  uint64_t index = counters.reads++;
  if (options_.fail_reads_from >= 0 &&
      index >= static_cast<uint64_t>(options_.fail_reads_from)) {
    ++counters.injected_read_errors;
    return Status::IoError("injected read error at offset " +
                           std::to_string(offset) + " in " + base_->path());
  }
  if (options_.read_error_prob > 0 && rng_.NextBool(options_.read_error_prob)) {
    ++counters.injected_read_errors;
    return Status::IoError("injected (seeded) read error at offset " +
                           std::to_string(offset) + " in " + base_->path());
  }
  CALDERA_RETURN_IF_ERROR(base_->ReadAt(offset, n, buf));
  for (uint64_t bit : options_.flip_bits) {
    uint64_t byte = bit / 8;
    if (byte >= offset && byte < offset + n) {
      buf[byte - offset] ^= static_cast<char>(1u << (bit % 8));
      ++counters.flipped_bits;
    }
  }
  return Status::Ok();
}

Status FaultInjectionFile::Crash() {
  disk_->Crash(options_.crash_keep_prob, options_.seed);
  return CrashedError(base_->path());
}

Result<FaultInjectionDisk::Change> FaultInjectionFile::Before(
    uint64_t offset, uint64_t end) const {
  FaultInjectionDisk::Change change;
  change.offset = offset;
  // The file's size on disk, which another handle may have changed since
  // this one cached its own.
  std::error_code ec;
  change.old_size = std::filesystem::file_size(base_->path(), ec);
  if (ec) {
    return Status::IoError("stat " + base_->path() + ": " + ec.message());
  }
  if (offset < change.old_size) {
    change.before.resize(std::min(end, change.old_size) - offset);
    CALDERA_RETURN_IF_ERROR(
        base_->ReadAt(offset, change.before.size(), change.before.data()));
  }
  return change;
}

Status FaultInjectionFile::LoggedWrite(uint64_t offset,
                                       std::string_view data) {
  CALDERA_ASSIGN_OR_RETURN(FaultInjectionDisk::Change change,
                           Before(offset, offset + data.size()));
  change.is_write = true;
  change.written.assign(data);
  CALDERA_RETURN_IF_ERROR(base_->WriteAt(offset, data));
  disk_->unsynced[base_->path()].push_back(std::move(change));
  return Status::Ok();
}

Status FaultInjectionFile::WriteAt(uint64_t offset, std::string_view data) {
  if (disk_->crashed) return CrashedError(base_->path());
  FaultInjectionCounters& counters = disk_->counters;
  uint64_t index = counters.writes++;
  if (options_.crash_at_write == static_cast<int64_t>(index)) return Crash();
  if (options_.fail_writes_from >= 0 &&
      index >= static_cast<uint64_t>(options_.fail_writes_from)) {
    ++counters.injected_write_errors;
    if (options_.torn_writes && !data.empty()) {
      // Persist a seeded strict prefix, then report failure — the on-disk
      // state is the torn page a crash mid-write would leave behind.
      size_t keep = 1 + rng_.NextBelow(data.size());
      if (keep == data.size()) keep = data.size() / 2;
      if (keep > 0) {
        CALDERA_RETURN_IF_ERROR(LoggedWrite(offset, data.substr(0, keep)));
      }
    }
    return Status::IoError("injected write error at offset " +
                           std::to_string(offset) + " in " + base_->path());
  }
  return LoggedWrite(offset, data);
}

Status FaultInjectionFile::Truncate(uint64_t size) {
  if (disk_->crashed) return CrashedError(base_->path());
  CALDERA_ASSIGN_OR_RETURN(FaultInjectionDisk::Change change,
                           Before(size, UINT64_MAX));
  CALDERA_RETURN_IF_ERROR(base_->Truncate(size));
  disk_->unsynced[base_->path()].push_back(std::move(change));
  return Status::Ok();
}

Status FaultInjectionFile::Sync() {
  if (disk_->crashed) return CrashedError(base_->path());
  const auto index = static_cast<int64_t>(disk_->counters.syncs++);
  if (options_.crash_at_sync == index) return Crash();
  if (options_.fail_sync || options_.fail_sync_at == index) {
    return Status::IoError("injected sync error in " + base_->path());
  }
  CALDERA_RETURN_IF_ERROR(base_->Sync());
  disk_->unsynced.erase(base_->path());
  return Status::Ok();
}

uint64_t FaultInjectionFile::size() const { return base_->size(); }

Status FaultInjectionFile::RefreshSize() { return base_->RefreshSize(); }

const std::string& FaultInjectionFile::path() const { return base_->path(); }

ScopedFaultInjection::ScopedFaultInjection(std::string path_substring,
                                           FaultInjectionOptions options)
    : options_(std::move(options)),
      disk_(std::make_shared<FaultInjectionDisk>()) {
  File::SetWrapHookForTesting(
      [substring = std::move(path_substring), options = options_,
       disk = disk_](std::unique_ptr<File> file) -> std::unique_ptr<File> {
        if (disk->reverting ||
            file->path().find(substring) == std::string::npos) {
          return file;
        }
        return std::make_unique<FaultInjectionFile>(std::move(file), options,
                                                    disk);
      });
}

ScopedFaultInjection::~ScopedFaultInjection() {
  File::SetWrapHookForTesting(nullptr);
}

void ScopedFaultInjection::Crash() {
  disk_->Crash(options_.crash_keep_prob, options_.seed);
}

}  // namespace caldera
