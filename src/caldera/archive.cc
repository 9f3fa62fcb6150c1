#include "caldera/archive.h"

#include <filesystem>

#include "ingest/ingestor.h"

namespace caldera {

namespace {
std::string McDir(const std::string& dir) { return dir + "/mc"; }
}  // namespace

Result<std::unique_ptr<ArchivedStream>> ArchivedStream::OpenWithoutIndexes(
    const std::string& dir, size_t pool_pages) {
  auto archived =
      std::unique_ptr<ArchivedStream>(new ArchivedStream(dir, pool_pages));
  CALDERA_ASSIGN_OR_RETURN(archived->stream_,
                           StoredStream::Open(dir, pool_pages));
  return archived;
}

Result<std::unique_ptr<ArchivedStream>> ArchivedStream::Open(
    const std::string& dir, size_t pool_pages) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<ArchivedStream> archived,
                           OpenWithoutIndexes(dir, pool_pages));
  const size_t num_attrs = archived->schema().num_attributes();
  archived->btc_.resize(num_attrs);
  archived->btp_.resize(num_attrs);
  for (const TreeIndexFile& file : TreeIndexFiles(dir, num_attrs)) {
    CALDERA_RETURN_IF_ERROR(archived->OpenTree(file));
  }
  if (FileExists(McDir(dir) + "/mc.meta")) {
    StoredStream* raw = archived->stream_.get();
    CALDERA_ASSIGN_OR_RETURN(
        archived->mc_,
        McIndex::Open(
            McDir(dir),
            [raw](uint64_t t, Cpt* out) { return raw->ReadTransition(t, out); },
            pool_pages));
    // mc.meta carries no checksum; a domain that disagrees with the schema
    // would bound decoded level entries by a corrupt field.
    if (archived->mc_->domain_size() != raw->schema().state_count()) {
      return Status::Corruption(
          "MC index domain does not match the schema in " + McDir(dir));
    }
  }
  return archived;
}

Status ArchivedStream::OpenTree(const TreeIndexFile& file) {
  TreeSlot& slot = (file.is_btc ? btc_ : btp_)[file.attr];
  // Read before the open: a compaction renaming a new file in between then
  // costs the next Refresh a needless reopen, never a missed one.
  slot.inode = FileInode(file.path);
  CALDERA_ASSIGN_OR_RETURN(slot.tree,
                           OpenTreeIndex(file, stream_.get(), pool_pages_));
  return Status::Ok();
}

Status ArchivedStream::Refresh() {
  CALDERA_RETURN_IF_ERROR(stream_->Refresh());
  if (mc_ != nullptr) CALDERA_RETURN_IF_ERROR(mc_->Refresh());
  for (bool is_btc : {true, false}) {
    std::vector<TreeSlot>& trees = is_btc ? btc_ : btp_;
    for (size_t attr = 0; attr < trees.size(); ++attr) {
      if (trees[attr].tree == nullptr) continue;
      const TreeIndexFile file{
          attr, is_btc,
          is_btc ? BtcIndexPath(dir_, attr) : BtpIndexPath(dir_, attr)};
      if (FileInode(file.path) != trees[attr].inode) {
        CALDERA_RETURN_IF_ERROR(OpenTree(file));  // Compacted since.
      } else {
        CALDERA_RETURN_IF_ERROR(
            ExtendTreeTail(file, stream_.get(), trees[attr].tree.get()));
      }
    }
  }
  return Status::Ok();
}

BufferPoolStats ArchivedStream::IndexIoStats() const {
  BufferPoolStats total;
  for (const std::vector<TreeSlot>* trees : {&btc_, &btp_}) {
    for (const TreeSlot& open : *trees) {
      if (open.tree != nullptr) total += open.tree->stats();
    }
  }
  if (mc_ != nullptr) total += mc_->IoStats();
  return total;
}

void ArchivedStream::ResetStats() {
  stream_->ResetStats();
  for (std::vector<TreeSlot>* trees : {&btc_, &btp_}) {
    for (TreeSlot& open : *trees) {
      if (open.tree != nullptr) open.tree->ResetStats();
    }
  }
  if (mc_ != nullptr) mc_->ResetStats();
}

Status StreamArchive::CreateStream(const std::string& name,
                                   const MarkovianStream& stream,
                                   DiskLayout layout, uint32_t page_size) {
  if (HasStream(name)) {
    return Status::AlreadyExists("stream '" + name + "' already archived");
  }
  CALDERA_RETURN_IF_ERROR(Init());
  return WriteStream(StreamDir(name), stream, layout, page_size);
}

Status StreamArchive::BuildBtc(const std::string& name, size_t attr) {
  return BuildTree(name, {attr, true, BtcIndexPath(StreamDir(name), attr)});
}

Status StreamArchive::BuildBtp(const std::string& name, size_t attr) {
  return BuildTree(name, {attr, false, BtpIndexPath(StreamDir(name), attr)});
}

Status StreamArchive::BuildTree(const std::string& name,
                                const TreeIndexFile& file) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<StoredStream> stored,
                           StoredStream::Open(StreamDir(name)));
  return BuildTreeIndex(file, stored.get()).status();
}

Status StreamArchive::BuildMc(const std::string& name,
                              const McIndexOptions& options) {
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<StoredStream> stored,
                           StoredStream::Open(StreamDir(name)));
  StoredStream* raw = stored.get();
  return McIndex::Build(
      McDir(StreamDir(name)),
      [raw](uint64_t t, Cpt* out) { return raw->ReadTransition(t, out); },
      raw->length(), raw->schema().state_count(), options);
}

Result<std::unique_ptr<ArchivedStream>> StreamArchive::OpenStream(
    const std::string& name, size_t pool_pages) {
  if (!HasStream(name)) {
    return Status::NotFound("no stream named '" + name + "' in archive");
  }
  return ArchivedStream::Open(StreamDir(name), pool_pages);
}

Status StreamArchive::RebuildIndexes(const std::string& name) {
  if (!HasStream(name)) {
    return Status::NotFound("no stream named '" + name + "' in archive");
  }
  const std::string dir = StreamDir(name);
  // The stream's writer lock: an ingestor's checkpoints rename tree files.
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<FileLock> writer,
                           FileLock::Acquire(StreamIngestor::LockPath(dir)));

  CALDERA_ASSIGN_OR_RETURN(StreamMetaInfo info, ReadStreamMeta(dir));
  const std::vector<TreeIndexFile> trees =
      TreeIndexFiles(dir, info.schema.num_attributes());

  // The MC index's build parameters live in mc/mc.meta; recover them when
  // the metadata is still readable, otherwise rebuild with defaults.
  const bool had_mc = FileExists(McDir(dir) + "/mc.meta");
  McIndexOptions mc_options;
  if (had_mc) {
    Result<McMetaSummary> meta = McIndex::ReadMeta(McDir(dir));
    if (meta.ok()) mc_options = meta->options;
  }

  for (const TreeIndexFile& tree : trees) {
    CALDERA_RETURN_IF_ERROR(RemoveFileIfExists(tree.path));
    CALDERA_RETURN_IF_ERROR(BuildTree(name, tree));
  }
  if (had_mc) {
    std::error_code ec;
    std::filesystem::remove_all(McDir(dir), ec);
    if (ec) {
      return Status::IoError("cannot remove " + McDir(dir) + ": " +
                             ec.message());
    }
    CALDERA_RETURN_IF_ERROR(BuildMc(name, mc_options));
  }
  return Status::Ok();
}

Result<std::vector<std::string>> StreamArchive::ListStreams() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root_, ec)) {
    if (entry.is_directory() && FileExists(entry.path() / "meta.bin")) {
      names.push_back(entry.path().filename().string());
    }
  }
  if (ec) return Status::IoError("cannot list archive: " + ec.message());
  std::sort(names.begin(), names.end());
  return names;
}

bool StreamArchive::HasStream(const std::string& name) const {
  return FileExists(StreamDir(name) + "/meta.bin");
}

}  // namespace caldera
