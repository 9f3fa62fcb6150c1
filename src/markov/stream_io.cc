#include "markov/stream_io.h"

#include "common/encoding.h"
#include "storage/file.h"

namespace caldera {

namespace {
constexpr char kMetaMagic[8] = {'C', 'L', 'D', 'R', 'M', 'K', 'V', '1'};
constexpr const char* kMetaFile = "meta.bin";
constexpr const char* kMarginalsFile = "marginals.rec";
constexpr const char* kCptsFile = "cpts.rec";
constexpr const char* kCombinedFile = "stream.rec";
}  // namespace

std::string StreamMetaPath(const std::string& dir) {
  return dir + "/" + kMetaFile;
}
std::string StreamMarginalsPath(const std::string& dir) {
  return dir + "/" + kMarginalsFile;
}
std::string StreamCptsPath(const std::string& dir) {
  return dir + "/" + kCptsFile;
}
std::string StreamCombinedPath(const std::string& dir) {
  return dir + "/" + kCombinedFile;
}

Result<StreamMetaInfo> ReadStreamMeta(const std::string& dir) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> meta_file,
                           File::OpenReadOnly(StreamMetaPath(dir)));
  std::string meta(meta_file->size(), '\0');
  CALDERA_RETURN_IF_ERROR(meta_file->ReadAt(0, meta.size(), meta.data()));
  if (meta.size() < 17 || meta.compare(0, 8, kMetaMagic, 8) != 0) {
    return Status::Corruption("bad stream metadata in " + dir);
  }
  StreamMetaInfo info;
  info.layout = static_cast<DiskLayout>(meta[8]);
  if (info.layout != DiskLayout::kSeparated &&
      info.layout != DiskLayout::kCoClustered) {
    return Status::Corruption("bad layout byte in " + dir);
  }
  info.length = GetFixed64(meta.data() + 9);
  size_t offset = 17;
  CALDERA_ASSIGN_OR_RETURN(info.schema, StreamSchema::Parse(meta, &offset));
  return info;
}

Status UpdateStreamLength(const std::string& dir, uint64_t new_length) {
  // Validate before patching so a stray call cannot stamp a length into an
  // arbitrary file.
  CALDERA_RETURN_IF_ERROR(ReadStreamMeta(dir).status());
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                           File::Open(StreamMetaPath(dir)));
  std::string field;
  PutFixed64(new_length, &field);
  return f->WriteAt(9, field);
}

const char* DiskLayoutName(DiskLayout layout) {
  switch (layout) {
    case DiskLayout::kSeparated:
      return "separated";
    case DiskLayout::kCoClustered:
      return "co-clustered";
  }
  return "unknown";
}

Status WriteStream(const std::string& dir, const MarkovianStream& stream,
                   DiskLayout layout, uint32_t page_size) {
  CALDERA_RETURN_IF_ERROR(CreateDirectories(dir));

  // Metadata.
  std::string meta(kMetaMagic, 8);
  meta.push_back(static_cast<char>(layout));
  PutFixed64(stream.length(), &meta);
  stream.schema().AppendTo(&meta);
  {
    CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                             File::OpenOrCreate(dir + "/" + kMetaFile));
    CALDERA_RETURN_IF_ERROR(f->Truncate(0));
    CALDERA_RETURN_IF_ERROR(f->Append(meta));
    CALDERA_RETURN_IF_ERROR(f->Sync());
  }

  std::string record;
  if (layout == DiskLayout::kSeparated) {
    CALDERA_ASSIGN_OR_RETURN(
        std::unique_ptr<RecordFileWriter> marginals,
        RecordFileWriter::Create(dir + "/" + kMarginalsFile, page_size));
    CALDERA_ASSIGN_OR_RETURN(
        std::unique_ptr<RecordFileWriter> cpts,
        RecordFileWriter::Create(dir + "/" + kCptsFile, page_size));
    for (uint64_t t = 0; t < stream.length(); ++t) {
      record.clear();
      stream.marginal(t).AppendTo(&record);
      CALDERA_RETURN_IF_ERROR(marginals->Append(record).status());
      record.clear();
      stream.transition(t).AppendTo(&record);
      CALDERA_RETURN_IF_ERROR(cpts->Append(record).status());
    }
    CALDERA_RETURN_IF_ERROR(marginals->Finalize());
    CALDERA_RETURN_IF_ERROR(cpts->Finalize());
    CALDERA_RETURN_IF_ERROR(marginals->Sync());
    return cpts->Sync();
  }

  CALDERA_ASSIGN_OR_RETURN(
      std::unique_ptr<RecordFileWriter> combined,
      RecordFileWriter::Create(dir + "/" + kCombinedFile, page_size));
  for (uint64_t t = 0; t < stream.length(); ++t) {
    record.clear();
    stream.marginal(t).AppendTo(&record);
    stream.transition(t).AppendTo(&record);
    CALDERA_RETURN_IF_ERROR(combined->Append(record).status());
  }
  CALDERA_RETURN_IF_ERROR(combined->Finalize());
  return combined->Sync();
}

Result<std::unique_ptr<StoredStream>> StoredStream::Open(
    const std::string& dir, size_t pool_pages) {
  CALDERA_ASSIGN_OR_RETURN(StreamMetaInfo meta, ReadStreamMeta(dir));
  auto stream = std::unique_ptr<StoredStream>(new StoredStream(
      dir, meta.layout, meta.length, std::move(meta.schema)));
  if (meta.layout == DiskLayout::kSeparated) {
    CALDERA_ASSIGN_OR_RETURN(
        stream->marginals_,
        RecordFileReader::Open(dir + "/" + kMarginalsFile, pool_pages));
    CALDERA_ASSIGN_OR_RETURN(
        stream->cpts_,
        RecordFileReader::Open(dir + "/" + kCptsFile, pool_pages));
  } else {
    CALDERA_ASSIGN_OR_RETURN(
        stream->combined_,
        RecordFileReader::Open(dir + "/" + kCombinedFile, pool_pages));
  }
  CALDERA_RETURN_IF_ERROR(stream->CheckRecordCounts(meta.length));
  return stream;
}

Status StoredStream::CheckRecordCounts(uint64_t length) const {
  for (const auto* reader : {&marginals_, &cpts_, &combined_}) {
    if (*reader != nullptr && (*reader)->num_records() != length) {
      return Status::Corruption("record count mismatch in " + dir_);
    }
  }
  return Status::Ok();
}

Status StoredStream::Refresh() {
  CALDERA_ASSIGN_OR_RETURN(StreamMetaInfo meta, ReadStreamMeta(dir_));
  if (meta.layout != layout_ || meta.schema != schema_ ||
      meta.length < length_) {
    return Status::Corruption("stream metadata of " + dir_ +
                              " changed layout or schema, or shrank");
  }
  for (const auto* reader : {&marginals_, &cpts_, &combined_}) {
    if (*reader != nullptr) CALDERA_RETURN_IF_ERROR((*reader)->Refresh());
  }
  CALDERA_RETURN_IF_ERROR(CheckRecordCounts(meta.length));
  length_ = meta.length;
  return Status::Ok();
}

Status StoredStream::ReadCoClustered(uint64_t t, Distribution* marginal,
                                     Cpt* transition) {
  PageHandle pin;
  std::string_view record;
  CALDERA_RETURN_IF_ERROR(combined_->View(t, &scratch_, &pin, &record));
  size_t offset = 0;
  // A part the caller does not want is still checked, decoded into a
  // reused scratch target, so a steady-state read allocates nothing.
  CALDERA_RETURN_IF_ERROR(
      Distribution::Parse(record, &offset, schema_.state_count(),
                          marginal != nullptr ? marginal : &scratch_marginal_));
  return Cpt::Parse(record, &offset, schema_.state_count(),
                    transition != nullptr ? transition : &scratch_cpt_);
}

Status StoredStream::ReadMarginal(uint64_t t, Distribution* out) {
  if (t >= length_) {
    return Status::OutOfRange("timestep " + std::to_string(t) +
                              " >= length " + std::to_string(length_));
  }
  if (layout_ == DiskLayout::kCoClustered) {
    return ReadCoClustered(t, out, nullptr);
  }
  PageHandle pin;
  std::string_view record;
  CALDERA_RETURN_IF_ERROR(marginals_->View(t, &scratch_, &pin, &record));
  size_t offset = 0;
  return Distribution::Parse(record, &offset, schema_.state_count(), out);
}

Status StoredStream::ReadTransition(uint64_t t, Cpt* out) {
  if (t == 0 || t >= length_) {
    return Status::OutOfRange("no transition into timestep " +
                              std::to_string(t));
  }
  if (layout_ == DiskLayout::kCoClustered) {
    return ReadCoClustered(t, nullptr, out);
  }
  PageHandle pin;
  std::string_view record;
  CALDERA_RETURN_IF_ERROR(cpts_->View(t, &scratch_, &pin, &record));
  size_t offset = 0;
  return Cpt::Parse(record, &offset, schema_.state_count(), out);
}

BufferPoolStats StoredStream::IoStats() const {
  BufferPoolStats total;
  if (marginals_ != nullptr) total += marginals_->stats();
  if (cpts_ != nullptr) total += cpts_->stats();
  if (combined_ != nullptr) total += combined_->stats();
  return total;
}

void StoredStream::ResetStats() {
  if (marginals_ != nullptr) marginals_->ResetStats();
  if (cpts_ != nullptr) cpts_->ResetStats();
  if (combined_ != nullptr) combined_->ResetStats();
}

Result<MarkovianStream> LoadStream(StoredStream* stored) {
  MarkovianStream stream(stored->schema());
  for (uint64_t t = 0; t < stored->length(); ++t) {
    Distribution marginal;
    Cpt transition;
    CALDERA_RETURN_IF_ERROR(stored->ReadMarginal(t, &marginal));
    if (t > 0) CALDERA_RETURN_IF_ERROR(stored->ReadTransition(t, &transition));
    stream.Append(std::move(marginal), std::move(transition));
  }
  return stream;
}

}  // namespace caldera
