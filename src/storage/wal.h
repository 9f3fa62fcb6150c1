#ifndef CALDERA_STORAGE_WAL_H_
#define CALDERA_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/file.h"

namespace caldera {

// A write-ahead log of CRC32C-framed records, the durability backbone of the
// live-ingestion path (src/ingest/). The format is deliberately minimal:
//
//   offset 0: 8-byte magic "CLDRWAL1"
//   then frames, back to back:
//     u32  payload length
//     u8   record type (opaque to this layer)
//     u64  sequence number (strictly increasing from 1)
//     u32  CRC-32C over (type byte || seq bytes || payload)
//     payload bytes
//
// A crash can leave a torn frame at the tail (a partially persisted
// Append). Open scans forward validating every frame and truncates the file
// at the first frame that does not check out — the classic torn-tail rule:
// everything before the tear was synced by a successful Commit, everything
// at/after it was never acknowledged.

struct WalRecord {
  uint8_t type = 0;
  uint64_t seq = 0;
  std::string payload;
};

/// An open write-ahead log. Single-threaded, like the rest of the storage
/// layer; the ingest pipeline serializes access.
class Wal {
 public:
  /// Opens (creating if absent) the log at `path`, scans the existing
  /// frames, and truncates any torn tail. The surviving records are
  /// available via recovered() until the next Reset.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path);

  /// Records that survived the open-time scan (in sequence order).
  const std::vector<WalRecord>& recovered() const { return recovered_; }

  /// True when Open found (and truncated) a torn tail.
  bool truncated_tail() const { return truncated_tail_; }

  /// Appends one frame; returns its sequence number. The frame is NOT
  /// durable until Sync succeeds.
  Result<uint64_t> Append(uint8_t type, std::string_view payload);

  /// Flushes all appended frames to stable storage (the commit point).
  Status Sync();

  /// Drops every frame (magic header is preserved) and syncs: the ingest
  /// checkpoint calls it once the data files hold every logged batch.
  Status Reset();

  /// A resumable position in the log: capture before a speculative Append,
  /// roll back if its Sync fails.
  struct Mark {
    uint64_t size = 0;
    uint64_t next_seq = 1;
  };
  Mark mark() const { return Mark{size_, next_seq_}; }

  /// Undoes Appends made after `mark` (truncate + seq rewind). Best-effort:
  /// if this also fails the caller must treat the log as poisoned and rely
  /// on the open-time torn-tail scan.
  Status RollbackTo(const Mark& mark);

  /// Current log size in bytes (header included).
  uint64_t size_bytes() const { return size_; }

  uint64_t next_seq() const { return next_seq_; }
  const std::string& path() const { return path_; }

 private:
  Wal(std::unique_ptr<File> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}

  std::unique_ptr<File> file_;
  std::string path_;
  uint64_t size_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<WalRecord> recovered_;
  bool truncated_tail_ = false;
};

}  // namespace caldera

#endif  // CALDERA_STORAGE_WAL_H_
