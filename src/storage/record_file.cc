#include "storage/record_file.h"

#include <algorithm>
#include <cstring>

#include "common/encoding.h"

namespace caldera {

namespace {
constexpr char kRecMagic[8] = {'C', 'L', 'D', 'R', 'R', 'E', 'C', '2'};
constexpr PageId kMetaPage = 1;
constexpr PageId kFirstDataPage = 2;
constexpr PageId kFirstDirPage = 1;

uint64_t CeilDiv(uint64_t a, uint64_t b) { return a / b + (a % b != 0); }

// The decoded meta page of a record file.
struct RecordFileMeta {
  uint64_t num_records = 0;
  uint64_t data_bytes = 0;
};

// Reads the meta page and checks it against both files' page counts, so
// every later page index derived from them is in range.
Result<RecordFileMeta> ReadRecordFileMeta(const Pager& data, const Pager& dir) {
  const std::string& path = data.path();
  if (data.page_count() <= kMetaPage) {
    return Status::Corruption("record file has no meta page: " + path);
  }
  std::vector<char> page(data.page_size());
  CALDERA_RETURN_IF_ERROR(data.ReadPage(kMetaPage, page.data()));
  if (std::memcmp(page.data(), kRecMagic, 8) != 0) {
    return Status::Corruption("bad record-file magic in " + path);
  }
  RecordFileMeta meta;
  meta.num_records = GetFixed64(page.data() + 8);
  meta.data_bytes = GetFixed64(page.data() + 16);
  if (data.page_count() - kFirstDataPage !=
      CeilDiv(meta.data_bytes, data.page_size())) {
    return Status::Corruption("data size does not match meta in " + path);
  }
  // Entries the directory pages can hold; comparing counts first keeps
  // 8 * (n + 1) from overflowing on a corrupt count.
  const uint64_t dir_pages = dir.page_count() - kFirstDirPage;
  const uint64_t capacity = dir_pages * dir.page_size() / 8;
  if (meta.num_records >= capacity) {
    return Status::Corruption("directory shorter than record count in " +
                              path);
  }
  if (dir_pages != CeilDiv((meta.num_records + 1) * 8, dir.page_size())) {
    return Status::Corruption("directory size does not match meta in " +
                              path);
  }
  return meta;
}

// The two pager files of a record file plus its validated meta.
struct OpenedRecordFile {
  std::unique_ptr<Pager> data;
  std::unique_ptr<Pager> dir;
  RecordFileMeta meta;
};

Result<OpenedRecordFile> OpenRecordFile(const std::string& path) {
  OpenedRecordFile out;
  CALDERA_ASSIGN_OR_RETURN(out.data, Pager::Open(path));
  CALDERA_ASSIGN_OR_RETURN(out.dir, Pager::Open(RecordFileDirPath(path)));
  CALDERA_ASSIGN_OR_RETURN(out.meta, ReadRecordFileMeta(*out.data, *out.dir));
  return out;
}

// Appends directory entries [begin, meta.num_records] of `dir` to
// *offsets, which holds entries [0, begin). Each entry must not precede
// the one before it (entry 0 is 0) and the last must equal meta.data_bytes;
// on error *offsets is left as it was.
Status LoadDirectory(const Pager& dir, const RecordFileMeta& meta,
                     uint64_t begin, std::vector<uint64_t>* offsets) {
  const uint32_t page_size = dir.page_size();
  std::vector<char> page(page_size);
  Status status;
  for (uint64_t i = begin; i <= meta.num_records && status.ok(); ++i) {
    const uint64_t at = i * 8 % page_size;
    if (i == begin || at == 0) {
      status = dir.ReadPage(kFirstDirPage + i * 8 / page_size, page.data());
      if (!status.ok()) break;
    }
    const uint64_t offset = GetFixed64(page.data() + at);
    if (offsets->empty() ? offset != 0 : offset < offsets->back()) {
      status = Status::Corruption("non-monotone directory in " + dir.path());
    }
    offsets->push_back(offset);
  }
  if (status.ok() && offsets->back() != meta.data_bytes) {
    status = Status::Corruption("directory/meta mismatch in " + dir.path());
  }
  if (!status.ok()) offsets->resize(begin);
  return status;
}

// Physical byte range of page `id` of `pager`.
std::pair<uint64_t, uint64_t> PageRange(const Pager& pager, PageId id) {
  return {id * pager.physical_page_size(), pager.physical_page_size()};
}

}  // namespace

std::string RecordFileDirPath(const std::string& path) {
  return path + ".dir";
}

Result<std::vector<RecordFileAppendRegion>> RecordFileAppendRegions(
    const std::string& path) {
  CALDERA_ASSIGN_OR_RETURN(OpenedRecordFile file, OpenRecordFile(path));
  const RecordFileMeta& meta = file.meta;
  // Per file: the pager header (page count) and the partial tail page if
  // any (its zero padding fills with new bytes); plus the data file's meta
  // page.
  auto region = [](const Pager& pager, PageId first, uint64_t bytes) {
    RecordFileAppendRegion out;
    out.path = pager.path();
    out.size = pager.page_count() * pager.physical_page_size();
    out.overwritten.push_back(PageRange(pager, 0));
    if (bytes % pager.page_size() != 0) {
      out.overwritten.push_back(
          PageRange(pager, first + bytes / pager.page_size()));
    }
    return out;
  };
  RecordFileAppendRegion data =
      region(*file.data, kFirstDataPage, meta.data_bytes);
  data.overwritten.push_back(PageRange(*file.data, kMetaPage));
  return std::vector<RecordFileAppendRegion>{
      std::move(data),
      region(*file.dir, kFirstDirPage, (meta.num_records + 1) * 8)};
}

RecordFileWriter::RecordFileWriter(std::unique_ptr<Pager> data_pager,
                                   std::unique_ptr<Pager> dir_pager)
    : data_pager_(std::move(data_pager)), dir_pager_(std::move(dir_pager)) {
  data_.pager = data_pager_.get();
  data_.first = kFirstDataPage;
  dir_.pager = dir_pager_.get();
  dir_.first = kFirstDirPage;
}

Result<std::unique_ptr<RecordFileWriter>> RecordFileWriter::Create(
    const std::string& path, uint32_t page_size) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<Pager> data,
                           Pager::Create(path, page_size));
  // Reserve the meta page (page 1); Finalize writes it.
  CALDERA_ASSIGN_OR_RETURN(
      PageId meta,
      data->AppendPage(std::string(data->page_size(), '\0').data()));
  if (meta != kMetaPage) {
    return Status::Internal("meta page allocated at unexpected id");
  }
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<Pager> dir,
                           Pager::Create(RecordFileDirPath(path), page_size));
  auto writer = std::unique_ptr<RecordFileWriter>(
      new RecordFileWriter(std::move(data), std::move(dir)));
  // The directory opens with record 0's start offset.
  std::string entry;
  PutFixed64(0, &entry);
  CALDERA_RETURN_IF_ERROR(writer->dir_.Append(entry));
  return writer;
}

Result<std::unique_ptr<RecordFileWriter>> RecordFileWriter::OpenForAppend(
    const std::string& path) {
  CALDERA_ASSIGN_OR_RETURN(OpenedRecordFile file, OpenRecordFile(path));
  auto writer = std::unique_ptr<RecordFileWriter>(
      new RecordFileWriter(std::move(file.data), std::move(file.dir)));
  const RecordFileMeta& meta = file.meta;
  writer->num_records_ = meta.num_records;
  writer->data_.bytes = meta.data_bytes;
  writer->dir_.bytes = (meta.num_records + 1) * 8;

  // Reload each partial tail page into its staging buffer; the next write
  // of that page rewrites it in place. The directory's last page is read
  // even when full, to check its final entry against the meta.
  std::vector<char> page(writer->page_size());
  const uint64_t data_tail = meta.data_bytes % writer->page_size();
  if (data_tail > 0) {
    CALDERA_RETURN_IF_ERROR(writer->data_pager_->ReadPage(
        kFirstDataPage + meta.data_bytes / writer->page_size(), page.data()));
    writer->data_.partial.assign(page.data(), data_tail);
  }
  const uint32_t dir_page_size = writer->dir_pager_->page_size();
  const uint64_t last_entry = writer->dir_.bytes - 8;
  page.resize(dir_page_size);
  CALDERA_RETURN_IF_ERROR(writer->dir_pager_->ReadPage(
      kFirstDirPage + last_entry / dir_page_size, page.data()));
  if (GetFixed64(page.data() + last_entry % dir_page_size) !=
      meta.data_bytes) {
    return Status::Corruption("directory/meta mismatch in " + path);
  }
  writer->dir_.partial.assign(page.data(),
                              writer->dir_.bytes % dir_page_size);
  return writer;
}

Status RecordFileWriter::PackedPages::Write(PageId id, const char* page) {
  if (id == pager->page_count()) return pager->AppendPage(page).status();
  return pager->WritePage(id, page);
}

Status RecordFileWriter::PackedPages::Append(std::string_view data) {
  const uint32_t page_size = pager->page_size();
  size_t consumed = 0;
  while (consumed < data.size()) {
    size_t take = std::min<size_t>(page_size - partial.size(),
                                   data.size() - consumed);
    partial.append(data.data() + consumed, take);
    consumed += take;
    bytes += take;
    if (partial.size() == page_size) {
      CALDERA_RETURN_IF_ERROR(
          Write(first + (bytes - page_size) / page_size, partial.data()));
      partial.clear();
    }
  }
  return Status::Ok();
}

Status RecordFileWriter::PackedPages::Flush() {
  if (partial.empty()) return Status::Ok();
  std::string page = partial;
  page.resize(pager->page_size(), '\0');
  return Write(first + bytes / pager->page_size(), page.data());
}

Result<uint64_t> RecordFileWriter::Append(std::string_view record) {
  if (finalized_) {
    return Status::FailedPrecondition("record file already finalized");
  }
  CALDERA_RETURN_IF_ERROR(data_.Append(record));
  std::string end;
  PutFixed64(data_.bytes, &end);
  CALDERA_RETURN_IF_ERROR(dir_.Append(end));
  return num_records_++;
}

Status RecordFileWriter::Finalize() {
  if (finalized_) return Status::Ok();
  CALDERA_RETURN_IF_ERROR(data_.Flush());
  CALDERA_RETURN_IF_ERROR(dir_.Flush());
  CALDERA_RETURN_IF_ERROR(dir_pager_->Flush());
  // The meta page goes last: it is what makes the new records visible.
  std::string meta(kRecMagic, 8);
  PutFixed64(num_records_, &meta);
  PutFixed64(data_.bytes, &meta);
  meta.resize(data_pager_->page_size(), '\0');
  CALDERA_RETURN_IF_ERROR(data_pager_->WritePage(kMetaPage, meta.data()));
  CALDERA_RETURN_IF_ERROR(data_pager_->Flush());
  finalized_ = true;
  return Status::Ok();
}

Status RecordFileWriter::Sync() {
  CALDERA_RETURN_IF_ERROR(dir_pager_->Sync());
  return data_pager_->Sync();
}

Result<std::unique_ptr<RecordFileReader>> RecordFileReader::Open(
    const std::string& path, size_t pool_pages) {
  CALDERA_ASSIGN_OR_RETURN(OpenedRecordFile file, OpenRecordFile(path));
  // Load the directory (one-time metadata read; bypasses the pool so query
  // stats reflect only record accesses).
  std::vector<uint64_t> offsets;
  offsets.reserve(file.meta.num_records + 1);
  CALDERA_RETURN_IF_ERROR(LoadDirectory(*file.dir, file.meta, 0, &offsets));
  auto reader = std::unique_ptr<RecordFileReader>(
      new RecordFileReader(std::move(file.data), pool_pages));
  reader->offsets_ = std::move(offsets);
  reader->LoadTail();
  return reader;
}

void RecordFileReader::LoadTail() {
  const uint32_t page_size = pager_->page_size();
  tail_.clear();
  tail_status_ = Status::Ok();
  if (data_bytes() % page_size == 0) return;
  tail_.resize(page_size);
  tail_status_ =
      pager_->ReadPage(kFirstDataPage + data_bytes() / page_size, tail_.data());
}

Status RecordFileReader::Refresh() {
  const uint64_t old_records = num_records();
  const uint64_t old_bytes = data_bytes();
  CALDERA_RETURN_IF_ERROR(pager_->Refresh());
  // Open drops the directory file; the first Refresh reopens it and later
  // ones keep it.
  if (dir_pager_ == nullptr) {
    CALDERA_ASSIGN_OR_RETURN(dir_pager_,
                             Pager::Open(RecordFileDirPath(pager_->path())));
  } else {
    CALDERA_RETURN_IF_ERROR(dir_pager_->Refresh());
  }
  CALDERA_ASSIGN_OR_RETURN(RecordFileMeta meta,
                           ReadRecordFileMeta(*pager_, *dir_pager_));
  if (meta.num_records < old_records || meta.data_bytes < old_bytes) {
    return Status::Corruption("record file shrank: " + pager_->path());
  }
  // Only the new entries are read; the old ones are never moved.
  CALDERA_RETURN_IF_ERROR(
      LoadDirectory(*dir_pager_, meta, old_records + 1, &offsets_));
  LoadTail();
  return Status::Ok();
}

Result<uint64_t> RecordFileReader::RecordSize(uint64_t id) const {
  if (id >= num_records()) {
    return Status::OutOfRange("record " + std::to_string(id) + " >= " +
                              std::to_string(num_records()));
  }
  return offsets_[id + 1] - offsets_[id];
}

Status RecordFileReader::View(uint64_t id, std::string* scratch,
                              PageHandle* pin, std::string_view* out) {
  pin->Release();
  CALDERA_ASSIGN_OR_RETURN(uint64_t size, RecordSize(id));
  const uint32_t page_size = pager_->page_size();
  // Bytes on the partial last page, if there is one, come from tail_.
  const PageId tail_page = kFirstDataPage + data_bytes() / page_size;
  uint64_t off = offsets_[id];
  const PageId first = kFirstDataPage + off / page_size;
  if (size > 0 && first != tail_page && off % page_size + size <= page_size) {
    CALDERA_ASSIGN_OR_RETURN(*pin, pool_->Fetch(first));
    *out = std::string_view(pin->data() + off % page_size, size);
    return Status::Ok();
  }
  scratch->clear();
  scratch->reserve(size);
  uint64_t remaining = size;
  while (remaining > 0) {
    PageId page = kFirstDataPage + off / page_size;
    uint64_t in_page = off % page_size;
    uint64_t take = std::min<uint64_t>(remaining, page_size - in_page);
    if (page == tail_page) {
      CALDERA_RETURN_IF_ERROR(tail_status_);
      scratch->append(tail_.data() + in_page, take);
    } else {
      CALDERA_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(page));
      scratch->append(handle.data() + in_page, take);
    }
    off += take;
    remaining -= take;
  }
  *out = *scratch;
  return Status::Ok();
}

Status RecordFileReader::Get(uint64_t id, std::string* out) {
  PageHandle pin;
  std::string_view view;
  CALDERA_RETURN_IF_ERROR(View(id, out, &pin, &view));
  // A copied record is already in *out.
  if (view.data() != out->data()) out->assign(view);
  return Status::Ok();
}

}  // namespace caldera
