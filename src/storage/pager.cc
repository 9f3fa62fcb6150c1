#include "storage/pager.h"

#include <cstring>

#include "common/crc32c.h"
#include "common/encoding.h"

namespace caldera {

namespace {
constexpr char kMagic[8] = {'C', 'L', 'D', 'R', 'P', 'G', 'R', '2'};
constexpr size_t kHeaderSize = 8 /*magic*/ + 4 /*page_size*/ + 8 /*pages*/;

bool ValidPageSize(uint32_t page_size) {
  return page_size >= 512 && page_size <= kMaxPageSize &&
         (page_size & (page_size - 1)) == 0;
}

// Decodes the header fields at the start of page 0 and checks them against
// a file of `file_size` bytes.
Status DecodeHeader(const char* header, uint64_t file_size,
                    const std::string& path, uint32_t* page_size,
                    uint64_t* page_count) {
  if (std::memcmp(header, kMagic, 8) != 0) {
    return Status::Corruption("bad pager magic in " + path);
  }
  *page_size = GetFixed32(header + 8);
  *page_count = GetFixed64(header + 12);
  if (!ValidPageSize(*page_size)) {
    return Status::Corruption("bad page size in " + path);
  }
  // Division, not multiplication: a corrupt header with a huge page_count
  // must not wrap the product and slip past validation.
  if (*page_count == 0 || *page_count > file_size / *page_size) {
    return Status::Corruption("pager file truncated: " + path);
  }
  return Status::Ok();
}
}  // namespace

Pager::Pager(std::unique_ptr<File> file, uint32_t page_size,
             uint64_t page_count)
    : file_(std::move(file)),
      page_size_(page_size),
      payload_size_(page_size - kPageTrailerSize),
      page_count_(page_count),
      scratch_(page_size) {}

uint32_t Pager::PageCrc(const char* payload, PageId id) const {
  uint32_t crc = Crc32c(payload, payload_size_);
  char id_bytes[8];
  std::memcpy(id_bytes, &id, 8);
  return Crc32cExtend(crc, id_bytes, 8);
}

void Pager::StampPage(char* physical, PageId id) const {
  uint32_t crc = PageCrc(physical, id);
  std::memcpy(physical + payload_size_, &crc, 4);
  std::memset(physical + payload_size_ + 4, 0, kPageTrailerSize - 4);
}

Status Pager::VerifyPage(const char* physical, PageId id) const {
  uint32_t stored = GetFixed32(physical + payload_size_);
  uint32_t padding = GetFixed32(physical + payload_size_ + 4);
  if (stored != PageCrc(physical, id) || padding != 0) {
    return Status::Corruption("checksum mismatch on page " +
                              std::to_string(id) + " of " + file_->path());
  }
  return Status::Ok();
}

Result<std::unique_ptr<Pager>> Pager::Create(const std::string& path,
                                             uint32_t page_size) {
  if (!ValidPageSize(page_size)) {
    return Status::InvalidArgument(
        "page size must be a power of two in [512, 1 MiB]");
  }
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                           File::OpenOrCreate(path));
  CALDERA_RETURN_IF_ERROR(file->Truncate(0));
  auto pager = std::unique_ptr<Pager>(
      new Pager(std::move(file), page_size, /*page_count=*/1));
  // Materialize the (checksummed) header page.
  CALDERA_RETURN_IF_ERROR(pager->WriteHeader());
  return pager;
}

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path) {
  // Non-creating open: a missing archive must surface as NotFound, not as a
  // zero-byte junk file plus a Corruption error.
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> file, File::Open(path));
  if (file->size() < kHeaderSize) {
    return Status::Corruption("pager file too small: " + path);
  }
  char header[kHeaderSize];
  CALDERA_RETURN_IF_ERROR(file->ReadAt(0, kHeaderSize, header));
  uint32_t page_size = 0;
  uint64_t page_count = 0;
  CALDERA_RETURN_IF_ERROR(
      DecodeHeader(header, file->size(), path, &page_size, &page_count));
  auto pager = std::unique_ptr<Pager>(
      new Pager(std::move(file), page_size, page_count));
  // Verify the header page end-to-end so corrupt header fields (beyond the
  // sanity checks above) cannot steer reads.
  CALDERA_RETURN_IF_ERROR(
      pager->file_->ReadAt(0, page_size, pager->scratch_.data()));
  CALDERA_RETURN_IF_ERROR(pager->VerifyPage(pager->scratch_.data(), 0));
  return pager;
}

Status Pager::Refresh() {
  CALDERA_RETURN_IF_ERROR(file_->RefreshSize());
  CALDERA_RETURN_IF_ERROR(file_->ReadAt(0, page_size_, scratch_.data()));
  CALDERA_RETURN_IF_ERROR(VerifyPage(scratch_.data(), 0));
  uint32_t page_size = 0;
  uint64_t page_count = 0;
  CALDERA_RETURN_IF_ERROR(DecodeHeader(scratch_.data(), file_->size(),
                                       path(), &page_size, &page_count));
  if (page_size != page_size_ || page_count < page_count_) {
    return Status::Corruption("pager header of " + path() +
                              " changed page size or shrank");
  }
  page_count_ = page_count;
  return Status::Ok();
}

Status Pager::WriteHeader() {
  std::string header(kMagic, 8);
  PutFixed32(page_size_, &header);
  PutFixed64(page_count_, &header);
  // The header page is checksummed like any other page — build the full
  // physical image (header fields, zero padding, trailer) and write it.
  std::memset(scratch_.data(), 0, page_size_);
  std::memcpy(scratch_.data(), header.data(), header.size());
  StampPage(scratch_.data(), 0);
  unsynced_ = true;
  CALDERA_RETURN_IF_ERROR(file_->WriteAt(0, {scratch_.data(), page_size_}));
  header_dirty_ = false;
  return Status::Ok();
}

Status Pager::ReadPage(PageId id, char* buf) const {
  if (id >= page_count_) {
    return Status::OutOfRange("page " + std::to_string(id) + " >= count " +
                              std::to_string(page_count_));
  }
  CALDERA_RETURN_IF_ERROR(
      file_->ReadAt(id * page_size_, page_size_, scratch_.data()));
  CALDERA_RETURN_IF_ERROR(VerifyPage(scratch_.data(), id));
  std::memcpy(buf, scratch_.data(), payload_size_);
  return Status::Ok();
}

Status Pager::WritePage(PageId id, const char* buf) {
  if (id == 0 || id >= page_count_) {
    return Status::OutOfRange("cannot write page " + std::to_string(id));
  }
  std::memcpy(scratch_.data(), buf, payload_size_);
  StampPage(scratch_.data(), id);
  unsynced_ = true;
  return file_->WriteAt(id * page_size_, {scratch_.data(), page_size_});
}

Result<PageId> Pager::AppendPage(const char* payload) {
  PageId id = page_count_;
  std::memcpy(scratch_.data(), payload, payload_size_);
  StampPage(scratch_.data(), id);
  unsynced_ = true;
  CALDERA_RETURN_IF_ERROR(
      file_->WriteAt(id * page_size_, {scratch_.data(), page_size_}));
  ++page_count_;
  header_dirty_ = true;
  return id;
}

Status Pager::Flush() {
  return header_dirty_ ? WriteHeader() : Status::Ok();
}

Status Pager::Sync() {
  CALDERA_RETURN_IF_ERROR(Flush());
  if (!unsynced_) return Status::Ok();
  CALDERA_RETURN_IF_ERROR(file_->Sync());
  unsynced_ = false;
  return Status::Ok();
}

}  // namespace caldera
