#ifndef CALDERA_STORAGE_RECORD_FILE_H_
#define CALDERA_STORAGE_RECORD_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace caldera {

// A RecordFile stores an append-once / read-many sequence of variable-length
// records addressed by dense record id (0..n-1). Markovian stream archives
// are write-once, so the format is split into a writer (sequential append,
// finalized by writing the meta page) and a reader (page-cached random
// access).
//
// On-disk layout: two pager files, each growing only at its end.
//   X.rec      page 0: pager header
//              page 1: record-file meta ("CLDRREC2", record count n, data
//                      bytes)
//              pages 2.. : record bytes, packed back-to-back across pages
//   X.rec.dir  page 0: pager header
//              pages 1.. : directory = (n+1) u64 byte offsets delimiting
//                          records, packed back-to-back across pages
// Both files end exactly at the page holding their last byte, and an
// append rewrites in place only the pager headers, the meta page and the
// two partial tail pages — everything else it writes lies past the old
// ends (see RecordFileAppendRegions).

/// Path of the directory file that accompanies the record file `path`.
std::string RecordFileDirPath(const std::string& path);

/// One file of a record file as an append finds it. The append rewrites
/// the `overwritten` byte ranges ({offset, length}, physical bytes) in
/// place and writes nothing else below `size`; truncating the file back to
/// `size` and restoring those ranges undoes it bit for bit.
struct RecordFileAppendRegion {
  std::string path;
  uint64_t size = 0;
  std::vector<std::pair<uint64_t, uint64_t>> overwritten;
};

/// What OpenForAppend + Append + Finalize can write in the finalized record
/// file `path`: one region per file (X.rec, then X.rec.dir). The ingest WAL
/// journals exactly these pre-images before an append, so its undo cost is
/// a handful of pages whatever the file length.
Result<std::vector<RecordFileAppendRegion>> RecordFileAppendRegions(
    const std::string& path);

/// Sequentially builds a record file. Records become visible to readers only
/// after Finalize() succeeds.
class RecordFileWriter {
 public:
  static Result<std::unique_ptr<RecordFileWriter>> Create(
      const std::string& path, uint32_t page_size = kDefaultPageSize);

  /// Reopens a *finalized* record file so more records can be appended (the
  /// live-ingestion path). Reads only the meta page and the two tail pages,
  /// so the cost does not grow with the record count. New data and
  /// directory entries continue from the current ends; Finalize rewrites the
  /// meta page. Readers opened before the next Finalize keep serving their
  /// snapshot: committed record bytes and directory entries are never moved
  /// or modified, only the zero padding of each partial tail page is
  /// overwritten. NOT crash-atomic on its own — the ingest WAL journals the
  /// overwritten pages (RecordFileAppendRegions) first.
  static Result<std::unique_ptr<RecordFileWriter>> OpenForAppend(
      const std::string& path);

  /// Appends a record; returns its id.
  Result<uint64_t> Append(std::string_view record);

  /// Writes the tail pages, the meta page and both pager headers, without
  /// fsync. No appends afterwards.
  Status Finalize();

  /// Fsyncs both files. The offline builders call it after Finalize; the
  /// ingest path leaves durability to its WAL checkpoint.
  Status Sync();

  uint64_t num_records() const { return num_records_; }
  uint64_t data_bytes() const { return data_.bytes; }
  uint32_t page_size() const { return data_pager_->page_size(); }

 private:
  // A byte stream packed back-to-back into pages [first, ...) of a pager;
  // `partial` buffers the bytes of the last, incomplete page.
  struct PackedPages {
    Pager* pager = nullptr;
    PageId first = 0;
    uint64_t bytes = 0;
    std::string partial;

    Status Append(std::string_view data);
    // Writes the partial page, zero-padded (no-op when empty).
    Status Flush();
    // Writes `page` (page_size() bytes) as page `id`: appended when `id` is
    // the next page of the file, else rewritten in place (a partial tail
    // page that an append reopened).
    Status Write(PageId id, const char* page);
  };

  RecordFileWriter(std::unique_ptr<Pager> data_pager,
                   std::unique_ptr<Pager> dir_pager);

  std::unique_ptr<Pager> data_pager_;
  std::unique_ptr<Pager> dir_pager_;
  PackedPages data_;
  PackedPages dir_;
  uint64_t num_records_ = 0;
  bool finalized_ = false;
};

/// Reads a finalized record file. The directory and the partial last data
/// page are read into memory at Open and Refresh, the other pages through
/// an LRU buffer pool (stats()); View lets a decoder parse a record in its
/// pinned pool page. A reader serves its snapshot with no lock
/// against appends: no append rewrites a full data page.
class RecordFileReader {
 public:
  static Result<std::unique_ptr<RecordFileReader>> Open(
      const std::string& path, size_t pool_pages = 64);

  /// Advances the reader to the file as an append left it, at a cost of
  /// the appended records only: rereads both pager headers and the meta
  /// page, loads the new directory entries, and rereads the partial last
  /// data page. Corruption if the file shrank or its new entries do not
  /// check out; the reader then still serves its old records. Must not
  /// overlap an append.
  Status Refresh();

  /// Points *out at the bytes of record `id` without copying them when it
  /// can. A record that lies within one full data page is viewed in the
  /// buffer pool's frame, which *pin then holds; a record that straddles
  /// pages or sits on the in-memory tail page is copied into *scratch
  /// (replacing its contents), which *out then views. Releases *pin's
  /// previous page first. *out stays valid while *pin holds its page and
  /// *scratch is not modified. A tail page that failed its read at Open or
  /// Refresh fails the View that needs it.
  Status View(uint64_t id, std::string* scratch, PageHandle* pin,
              std::string_view* out);

  /// Reads record `id` into *out (replacing its contents): a View, copied.
  Status Get(uint64_t id, std::string* out);

  uint64_t num_records() const { return offsets_.size() - 1; }
  uint64_t data_bytes() const { return offsets_.back(); }

  const BufferPoolStats& stats() const { return pool_->stats(); }
  void ResetStats() { pool_->ResetStats(); }

 private:
  RecordFileReader(std::unique_ptr<Pager> pager, size_t pool_pages)
      : pager_(std::move(pager)),
        pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)) {}

  void LoadTail();  // Reads the partial last data page into tail_.
  Result<uint64_t> RecordSize(uint64_t id) const;  // Bytes of record `id`.

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Pager> dir_pager_;  // Null until the first Refresh.
  std::vector<uint64_t> offsets_;  // n+1 delimiting offsets.
  // As of Open/Refresh; an append fills it in place, so Get never reads it.
  std::vector<char> tail_;
  Status tail_status_;
};

}  // namespace caldera

#endif  // CALDERA_STORAGE_RECORD_FILE_H_
