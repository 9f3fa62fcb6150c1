#include "storage/fault_injection_file.h"

#include <algorithm>
#include <utility>

namespace caldera {

FaultInjectionFile::FaultInjectionFile(
    std::unique_ptr<File> base, FaultInjectionOptions options,
    std::shared_ptr<FaultInjectionCounters> counters)
    : base_(std::move(base)),
      options_(std::move(options)),
      counters_(counters ? std::move(counters)
                         : std::make_shared<FaultInjectionCounters>()),
      rng_(options_.seed) {}

Status FaultInjectionFile::ReadAt(uint64_t offset, size_t n, char* buf) const {
  uint64_t index = counters_->reads++;
  if (options_.fail_reads_from >= 0 &&
      index >= static_cast<uint64_t>(options_.fail_reads_from)) {
    ++counters_->injected_read_errors;
    return Status::IoError("injected read error at offset " +
                           std::to_string(offset) + " in " + base_->path());
  }
  if (options_.read_error_prob > 0 && rng_.NextBool(options_.read_error_prob)) {
    ++counters_->injected_read_errors;
    return Status::IoError("injected (seeded) read error at offset " +
                           std::to_string(offset) + " in " + base_->path());
  }
  CALDERA_RETURN_IF_ERROR(base_->ReadAt(offset, n, buf));
  for (uint64_t bit : options_.flip_bits) {
    uint64_t byte = bit / 8;
    if (byte >= offset && byte < offset + n) {
      buf[byte - offset] ^= static_cast<char>(1u << (bit % 8));
      ++counters_->flipped_bits;
    }
  }
  return Status::Ok();
}

Status FaultInjectionFile::WriteAt(uint64_t offset, std::string_view data) {
  uint64_t index = counters_->writes++;
  if (options_.fail_writes_from >= 0 &&
      index >= static_cast<uint64_t>(options_.fail_writes_from)) {
    ++counters_->injected_write_errors;
    if (options_.torn_writes && !data.empty()) {
      // Persist a seeded strict prefix, then report failure — the on-disk
      // state is the torn page a crash mid-write would leave behind.
      size_t keep = 1 + rng_.NextBelow(data.size());
      if (keep == data.size()) keep = data.size() / 2;
      if (keep > 0) {
        CALDERA_RETURN_IF_ERROR(base_->WriteAt(offset, data.substr(0, keep)));
      }
    }
    return Status::IoError("injected write error at offset " +
                           std::to_string(offset) + " in " + base_->path());
  }
  return base_->WriteAt(offset, data);
}

Status FaultInjectionFile::Truncate(uint64_t size) {
  return base_->Truncate(size);
}

Status FaultInjectionFile::Sync() {
  if (options_.fail_sync) {
    return Status::IoError("injected sync error in " + base_->path());
  }
  return base_->Sync();
}

uint64_t FaultInjectionFile::size() const { return base_->size(); }

Status FaultInjectionFile::RefreshSize() { return base_->RefreshSize(); }

const std::string& FaultInjectionFile::path() const { return base_->path(); }

ScopedFaultInjection::ScopedFaultInjection(std::string path_substring,
                                           FaultInjectionOptions options)
    : counters_(std::make_shared<FaultInjectionCounters>()) {
  File::SetWrapHookForTesting(
      [substring = std::move(path_substring), options,
       counters = counters_](std::unique_ptr<File> file)
          -> std::unique_ptr<File> {
        if (file->path().find(substring) == std::string::npos) return file;
        return std::make_unique<FaultInjectionFile>(std::move(file), options,
                                                    counters);
      });
}

ScopedFaultInjection::~ScopedFaultInjection() {
  File::SetWrapHookForTesting(nullptr);
}

}  // namespace caldera
