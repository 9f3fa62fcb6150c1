#ifndef CALDERA_STORAGE_PAGER_H_
#define CALDERA_STORAGE_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/file.h"

namespace caldera {

/// Identifies a page within one pager file. Page 0 is the pager header;
/// user data lives in pages >= 1.
using PageId = uint64_t;

inline constexpr uint32_t kDefaultPageSize = 4096;
/// Page sizes are powers of two in [512, kMaxPageSize]; the cap keeps a
/// corrupt page-size field from sizing a huge page buffer.
inline constexpr uint32_t kMaxPageSize = 1u << 20;
inline constexpr PageId kInvalidPageId = 0;

/// Bytes per page reserved for the integrity trailer (CRC-32C + zero
/// padding). Callers see pages of page_size() = physical - trailer bytes.
inline constexpr uint32_t kPageTrailerSize = 8;

/// A Pager exposes a file as an array of fixed-size pages. It owns the
/// on-disk header (magic, page size, page count); callers are responsible
/// for the contents of data pages. The Pager is the one write path: a writer
/// (BTreeBuilder, RecordFileWriter) hands it each page's finished payload,
/// AppendPage writing a new page once and WritePage rewriting one in place.
/// Reads normally go through a BufferPool, which only reads.
///
/// On disk ("CLDRPGR2") every physical page ends in an 8-byte trailer
/// holding the CRC-32C of (payload || page id) plus zero padding. The
/// checksum is stamped on every write and verified on every read, so a
/// flipped bit, torn page, or misdirected write surfaces as
/// Status::Corruption naming the file and page instead of propagating
/// garbage into query results. Any other magic, including that of the
/// retired unchecksummed v1 format, fails Open with Corruption.
class Pager {
 public:
  /// Creates a new pager file at `path` (truncating any existing file).
  /// `page_size` is the physical page size; page_size() reports the usable
  /// payload (physical minus the integrity trailer).
  static Result<std::unique_ptr<Pager>> Create(const std::string& path,
                                               uint32_t page_size);

  /// Opens an existing pager file, validating the header and its checksum.
  /// NotFound if `path` does not exist — never creates.
  static Result<std::unique_ptr<Pager>> Open(const std::string& path);

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Re-reads the file size and the header, for a reader whose file
  /// another handle has since grown: page_count() then covers the new
  /// pages. Corruption if the header fails its checksum, changed page size
  /// or shrank.
  Status Refresh();

  /// Reads page `id` into `buf` (page_size() bytes), verifying its checksum.
  Status ReadPage(PageId id, char* buf) const;

  /// Writes page `id` from `buf` (page_size() bytes), stamping its checksum.
  Status WritePage(PageId id, const char* buf);

  /// Writes `payload` (page_size() bytes) as a new page at the end of the
  /// file, stamping its checksum, and returns its id.
  Result<PageId> AppendPage(const char* payload);

  /// Writes the header back, but only if this handle changed it: a handle
  /// that never appended must not clobber a header another writer has
  /// since advanced. No fsync: other handles see the new page count, a
  /// crash may lose it.
  Status Flush();

  /// Flush, then fsync the file — but only if this handle wrote anything
  /// (header, WritePage, AppendPage) since its last successful Sync. A
  /// read-only handle's Sync is free. A failed fsync is reported, and a
  /// later Sync calls fsync again; that call succeeding does not prove the
  /// earlier writes reached disk (the kernel may have dropped them), so a
  /// writer must treat a failed Sync as fatal for the handle.
  Status Sync();

  /// Usable bytes per page (physical page minus the trailer).
  uint32_t page_size() const { return payload_size_; }
  /// On-disk bytes per page.
  uint32_t physical_page_size() const { return page_size_; }
  /// Number of pages including the header page.
  uint64_t page_count() const { return page_count_; }
  const std::string& path() const { return file_->path(); }

 private:
  Pager(std::unique_ptr<File> file, uint32_t page_size, uint64_t page_count);

  Status WriteHeader();
  uint32_t PageCrc(const char* payload, PageId id) const;
  Status VerifyPage(const char* physical, PageId id) const;
  void StampPage(char* physical, PageId id) const;

  std::unique_ptr<File> file_;
  uint32_t page_size_;     // Physical bytes per page.
  uint32_t payload_size_;  // page_size_ minus the trailer.
  uint64_t page_count_;
  // True while the in-memory page_count_ is ahead of the on-disk header
  // (pages appended since the last WriteHeader); Flush writes the header
  // only then. So a handle that only reads writes nothing, and a writer
  // whose append only filled its partial tail page leaves the header as it
  // was.
  bool header_dirty_ = false;
  // True while this handle has written bytes not yet covered by a
  // successful fsync.
  bool unsynced_ = false;
  // Physical-page staging buffer for reads/writes; mutable because
  // ReadPage is logically const. Pagers are single-threaded by design (one
  // per stream partition), so a single scratch buffer is safe.
  mutable std::vector<char> scratch_;
};

}  // namespace caldera

#endif  // CALDERA_STORAGE_PAGER_H_
