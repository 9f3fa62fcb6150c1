#include "ingest/ingestor.h"

#include <algorithm>

#include "common/encoding.h"
#include "common/logging.h"
#include "index/attribute_index.h"
#include "storage/record_file.h"

namespace caldera {

namespace {

// Pool pages of the ingestor's StoredStream and of a tree it compacts:
// Extend reads the last few transitions, a compaction reads sequentially.
constexpr size_t kStoredPoolPages = 4;

// WAL record types. The log holds every batch committed since the last
// checkpoint, each frame followed by the undo records of the files it was
// the first in the window to touch; a checkpoint resets it.
constexpr uint8_t kBatchFrame = 1;
/// Raw physical pre-image: {path, u64 offset, bytes}.
constexpr uint8_t kUndoRange = 2;
/// Restore the file to this size: {path, u64 size}.
constexpr uint8_t kUndoTruncate = 3;
/// Whole-file pre-image (small metadata files): {path, bytes}.
constexpr uint8_t kUndoSnapshot = 4;
/// The file did not exist before the apply: {path}.
constexpr uint8_t kUndoAbsent = 5;

void PutPath(const std::string& rel, std::string* out) {
  PutFixed32(static_cast<uint32_t>(rel.size()), out);
  out->append(rel);
}

// Whether `rel` names a file an undo journal covers: the stream metadata,
// mc/mc.meta, or a stream or MC level record file or its directory.
bool IsJournaledPath(std::string_view rel) {
  if (rel == "meta.bin" || rel == "mc/mc.meta") return true;
  if (rel.ends_with(".dir")) rel.remove_suffix(4);
  if (rel == "marginals.rec" || rel == "cpts.rec" || rel == "stream.rec") {
    return true;
  }
  // mc/L<level>.rec, the level without leading zeros.
  if (!rel.starts_with("mc/L") || !rel.ends_with(".rec")) return false;
  const std::string_view level = rel.substr(4, rel.size() - 8);
  return !level.empty() && level.size() <= 2 && level[0] != '0' &&
         std::all_of(level.begin(), level.end(),
                     [](char c) { return c >= '0' && c <= '9'; });
}

// Reads an undo record's path, which must name a journaled file: a damaged
// record cannot steer a restore outside the stream's own files.
Status GetPath(std::string_view payload, size_t* offset, std::string* rel) {
  if (payload.size() < *offset + 4) {
    return Status::Corruption("truncated undo record path");
  }
  const uint32_t len = GetFixed32(payload.data() + *offset);
  *offset += 4;
  if (payload.size() - *offset < len) {
    return Status::Corruption("truncated undo record path");
  }
  rel->assign(payload.data() + *offset, len);
  *offset += len;
  if (!IsJournaledPath(*rel)) {
    return Status::Corruption("undo record names no journaled file");
  }
  return Status::Ok();
}

}  // namespace

std::string StreamIngestor::WalPath(const std::string& dir) {
  return dir + "/ingest.wal";
}

std::string StreamIngestor::LockPath(const std::string& dir) {
  return dir + "/ingest.lock";
}

std::string StreamIngestor::EncodeBatch(
    uint64_t base, const std::vector<IngestTimestep>& batch) {
  std::string payload;
  PutFixed64(base, &payload);
  PutFixed32(static_cast<uint32_t>(batch.size()), &payload);
  for (const IngestTimestep& ts : batch) {
    ts.marginal.AppendTo(&payload);
    ts.transition.AppendTo(&payload);
  }
  return payload;
}

Result<std::vector<IngestTimestep>> StreamIngestor::DecodeBatch(
    std::string_view payload, uint32_t domain, uint64_t* base) {
  if (payload.size() < 12) {
    return Status::Corruption("truncated ingest batch frame");
  }
  *base = GetFixed64(payload.data());
  const uint32_t count = GetFixed32(payload.data() + 8);
  size_t offset = 12;
  // A timestep takes at least 8 bytes (two empty counts); reject a count
  // the payload cannot hold before allocating for it.
  if (count > (payload.size() - offset) / 8) {
    return Status::Corruption("ingest batch frame count " +
                              std::to_string(count) + " exceeds its bytes");
  }
  std::vector<IngestTimestep> batch(count);
  for (uint32_t i = 0; i < count; ++i) {
    CALDERA_RETURN_IF_ERROR(
        Distribution::Parse(payload, &offset, domain, &batch[i].marginal));
    CALDERA_RETURN_IF_ERROR(
        Cpt::Parse(payload, &offset, domain, &batch[i].transition));
  }
  if (offset != payload.size()) {
    return Status::Corruption("trailing bytes in ingest batch frame");
  }
  return batch;
}

Result<std::unique_ptr<StreamIngestor>> StreamIngestor::Open(
    const std::string& dir) {
  return Open(dir, Options());
}

Result<std::unique_ptr<StreamIngestor>> StreamIngestor::Open(
    const std::string& dir, Options options) {
  auto ingestor = std::unique_ptr<StreamIngestor>(
      new StreamIngestor(dir, std::move(options)));
  CALDERA_ASSIGN_OR_RETURN(ingestor->lock_, FileLock::Acquire(LockPath(dir)));
  CALDERA_ASSIGN_OR_RETURN(ingestor->wal_, Wal::Open(WalPath(dir)));
  ingestor->broken_ = false;
  std::unique_lock<std::shared_mutex> guard = ingestor->LockApply();
  Status recovered = ingestor->Recover();
  if (!recovered.ok()) {
    ingestor->broken_ = true;  // Closing must not checkpoint a half-redo.
    return recovered;
  }
  if (ingestor->stats_.batches_recovered > 0 &&
      ingestor->options_.on_commit != nullptr) {
    ingestor->options_.on_commit(ingestor->length_);
  }
  return ingestor;
}

StreamIngestor::~StreamIngestor() {
  if (broken_) return;
  Status checkpointed = Checkpoint();
  if (!checkpointed.ok()) {
    CALDERA_LOG_WARNING << "checkpoint of " << dir_ << " at close failed; "
                        << "the next open recovers: "
                        << checkpointed.ToString();
  }
}

std::unique_lock<std::shared_mutex> StreamIngestor::LockApply() {
  if (options_.apply_mutex == nullptr) return {};
  return std::unique_lock<std::shared_mutex>(*options_.apply_mutex);
}

Status StreamIngestor::OpenStored() {
  CALDERA_ASSIGN_OR_RETURN(stored_,
                           StoredStream::Open(dir_, kStoredPoolPages));
  return Status::Ok();
}

Status StreamIngestor::Recover() {
  // Every undo record holds a file's checkpoint-time state, so restoring
  // them all (newest first: a file's truncate before its page pre-images)
  // puts the data files back at the checkpoint, whatever subset of the
  // window's unsynced writes reached disk.
  const std::vector<WalRecord>& records = wal_->recovered();
  for (size_t i = records.size(); i > 0; --i) {
    const WalRecord& record = records[i - 1];
    if (record.type != kBatchFrame) {
      CALDERA_RETURN_IF_ERROR(RestoreUndoRecord(record));
    }
  }

  CALDERA_ASSIGN_OR_RETURN(StreamMetaInfo info, ReadStreamMeta(dir_));
  layout_ = info.layout;
  length_ = info.length;
  schema_ = std::move(info.schema);
  CALDERA_RETURN_IF_ERROR(OpenStored());

  // The B+ tree files need no restore: a commit never writes them, and a
  // compaction replaces one whole, at most up to the last checkpoint's
  // length, which the restore returns to.
  for (const WalRecord& record : records) {
    if (record.type != kBatchFrame) continue;
    uint64_t base = 0;
    CALDERA_ASSIGN_OR_RETURN(std::vector<IngestTimestep> batch,
                             DecodeBatch(record.payload,
                                         schema_.state_count(), &base));
    if (base != length_) {
      return Status::Corruption(
          "WAL batch expects stream length " + std::to_string(base) +
          " but " + dir_ + " has " + std::to_string(length_));
    }
    // The work of a redone batch was counted by the writer that committed
    // it.
    CALDERA_RETURN_IF_ERROR(ApplyBatch(base, batch, /*mc_stats=*/nullptr));
    length_ = base + batch.size();
    ++stats_.batches_recovered;
  }
  // The redone state must reach disk before the log that can rebuild it
  // is dropped.
  return Checkpoint();
}

Status StreamIngestor::Checkpoint() {
  if (broken_) {
    return Status::FailedPrecondition(
        "ingestor for " + dir_ +
        " is poisoned by an earlier failure; reopen to recover");
  }
  if (wal_->next_seq() == 1) return Status::Ok();  // Nothing since the last.
  Status synced = [&]() -> Status {
    for (const std::string& rel : touched_) {
      // A path an absent-marker named need not exist: a restore removed
      // it and no redone batch created it again.
      const std::string path = dir_ + "/" + rel;
      if (!FileExists(path)) continue;
      ++stats_.fsyncs;
      CALDERA_RETURN_IF_ERROR(SyncFile(path));
    }
    ++stats_.fsyncs;
    CALDERA_RETURN_IF_ERROR(wal_->Reset());
    // After the reset, so that no tree indexes more of the stream than a
    // recovery can restore.
    return CompactTrees();
  }();
  if (!synced.ok()) {
    broken_ = true;
    return synced;
  }
  touched_.clear();
  ++stats_.checkpoints;
  return Status::Ok();
}

Status StreamIngestor::CompactTrees() {
  for (const TreeIndexFile& file :
       TreeIndexFiles(dir_, schema_.num_attributes())) {
    // A tree that does not open, or indexes more than the stream holds, is
    // left as it is: queries rescue to the scan, and RebuildIndexes
    // repairs it.
    Result<std::unique_ptr<BTree>> tree =
        BTree::Open(file.path, kStoredPoolPages);
    if (!tree.ok() || (*tree)->indexed_length() > length_ ||
        !TreeCompactionDue((*tree)->indexed_length(), length_)) {
      continue;
    }
    CALDERA_ASSIGN_OR_RETURN(
        uint64_t written, CompactTreeIndex(file, stored_.get(), tree->get()));
    stats_.btree_inserts += written;
    stats_.fsyncs += 2;  // The new file, then the directory.
  }
  return Status::Ok();
}

Status StreamIngestor::RestoreUndoRecord(const WalRecord& record) {
  std::string rel;
  size_t offset = 0;
  CALDERA_RETURN_IF_ERROR(GetPath(record.payload, &offset, &rel));
  const std::string abs = dir_ + "/" + rel;
  // The restore's writes are unsynced like the redo's; the checkpoint
  // closing the recovery syncs them.
  touched_.insert(rel);
  // An append only grows files, so a restore never does: a range lies
  // inside the file (newest-first order has already truncated it back) and
  // a truncate shrinks it.
  switch (record.type) {
    case kUndoRange: {
      if (record.payload.size() < offset + 8) {
        return Status::Corruption("truncated undo range record");
      }
      const uint64_t at = GetFixed64(record.payload.data() + offset);
      const std::string_view bytes =
          std::string_view(record.payload).substr(offset + 8);
      CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f, File::Open(abs));
      if (at > f->size() || bytes.size() > f->size() - at) {
        return Status::Corruption("undo range past the end of " + rel);
      }
      return f->WriteAt(at, bytes);
    }
    case kUndoTruncate: {
      if (record.payload.size() < offset + 8) {
        return Status::Corruption("truncated undo truncate record");
      }
      const uint64_t size = GetFixed64(record.payload.data() + offset);
      CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f, File::Open(abs));
      if (size > f->size()) {
        return Status::Corruption("undo truncate would grow " + rel);
      }
      return f->Truncate(size);
    }
    case kUndoSnapshot: {
      CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                               File::OpenOrCreate(abs));
      CALDERA_RETURN_IF_ERROR(f->Truncate(0));
      return f->WriteAt(0, std::string_view(record.payload).substr(offset));
    }
    case kUndoAbsent:
      return RemoveFileIfExists(abs);
    default:
      return Status::Corruption("unknown WAL record type " +
                                std::to_string(record.type));
  }
}

bool StreamIngestor::FirstTouch(const std::string& rel) {
  if (!touched_.insert(rel).second) return false;
  commit_touched_.push_back(rel);
  return true;
}

Status StreamIngestor::JournalRange(const File& file, const std::string& rel,
                                    uint64_t offset, uint64_t len) {
  std::string payload;
  PutPath(rel, &payload);
  PutFixed64(offset, &payload);
  const size_t head = payload.size();
  payload.resize(head + len);
  CALDERA_RETURN_IF_ERROR(file.ReadAt(offset, len, payload.data() + head));
  return wal_->Append(kUndoRange, payload).status();
}

Status StreamIngestor::JournalTruncate(const std::string& rel,
                                       uint64_t size) {
  std::string payload;
  PutPath(rel, &payload);
  PutFixed64(size, &payload);
  return wal_->Append(kUndoTruncate, payload).status();
}

Status StreamIngestor::JournalSnapshot(const std::string& rel) {
  if (!FirstTouch(rel)) return Status::Ok();
  const std::string abs = dir_ + "/" + rel;
  CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f, File::OpenReadOnly(abs));
  std::string payload;
  PutPath(rel, &payload);
  const size_t head = payload.size();
  const uint64_t size = f->size();
  payload.resize(head + size);
  CALDERA_RETURN_IF_ERROR(f->ReadAt(0, size, payload.data() + head));
  return wal_->Append(kUndoSnapshot, payload).status();
}

Status StreamIngestor::JournalAbsent(const std::string& rel) {
  if (!FirstTouch(rel)) return Status::Ok();
  std::string payload;
  PutPath(rel, &payload);
  return wal_->Append(kUndoAbsent, payload).status();
}

Status StreamIngestor::JournalRecordFileUndo(const std::string& rel) {
  if (!FirstTouch(rel)) return Status::Ok();
  CALDERA_ASSIGN_OR_RETURN(std::vector<RecordFileAppendRegion> regions,
                           RecordFileAppendRegions(dir_ + "/" + rel));
  for (const RecordFileAppendRegion& region : regions) {
    // Region paths extend the path passed in; journal them relative to the
    // stream directory like every other undo record.
    const std::string region_rel = region.path.substr(dir_.size() + 1);
    FirstTouch(region_rel);
    CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<File> f,
                             File::OpenReadOnly(region.path));
    for (const auto& [offset, length] : region.overwritten) {
      CALDERA_RETURN_IF_ERROR(JournalRange(*f, region_rel, offset, length));
    }
    CALDERA_RETURN_IF_ERROR(JournalTruncate(region_rel, region.size));
  }
  return Status::Ok();
}

Status StreamIngestor::JournalMcUndo(uint64_t new_length) {
  const std::string mc_dir = dir_ + "/mc";
  if (!FileExists(mc_dir + "/mc.meta")) return Status::Ok();
  CALDERA_ASSIGN_OR_RETURN(McMetaSummary meta, McIndex::ReadMeta(mc_dir));
  // Extend bounds the level entries it decodes by this field; refuse before
  // the commit point rather than trust it.
  if (meta.domain != schema_.state_count()) {
    return Status::Corruption("MC domain " + std::to_string(meta.domain) +
                              " in " + mc_dir + " does not match the " +
                              std::to_string(schema_.state_count()) +
                              " states of the stream");
  }
  CALDERA_RETURN_IF_ERROR(JournalSnapshot("mc/mc.meta"));
  // Journal exactly the level files that Extend will grow: those whose
  // count at the new length exceeds the stored one.
  const std::vector<uint64_t> new_counts =
      McIndex::LevelCounts(new_length, meta.options);
  for (uint32_t level = 1; level <= new_counts.size(); ++level) {
    const bool exists = level <= meta.level_counts.size();
    if (exists && new_counts[level - 1] == meta.level_counts[level - 1]) {
      continue;
    }
    const std::string rel = McIndex::LevelPath("mc", level);
    if (exists) {
      CALDERA_RETURN_IF_ERROR(JournalRecordFileUndo(rel));
    } else {
      CALDERA_RETURN_IF_ERROR(JournalAbsent(rel));
      CALDERA_RETURN_IF_ERROR(JournalAbsent(RecordFileDirPath(rel)));
    }
  }
  return Status::Ok();
}

Status StreamIngestor::CommitToWal(const std::vector<IngestTimestep>& batch) {
  const Wal::Mark mark = wal_->mark();
  commit_touched_.clear();
  uint64_t frame_end = 0;
  Status committed = [&]() -> Status {
    CALDERA_RETURN_IF_ERROR(
        wal_->Append(kBatchFrame, EncodeBatch(length_, batch)).status());
    frame_end = wal_->size_bytes();
    // Undo records: captured before any mutation of this window, so a
    // crash at any later point finds them behind the frame.
    CALDERA_RETURN_IF_ERROR(JournalSnapshot("meta.bin"));
    if (layout_ == DiskLayout::kSeparated) {
      CALDERA_RETURN_IF_ERROR(JournalRecordFileUndo("marginals.rec"));
      CALDERA_RETURN_IF_ERROR(JournalRecordFileUndo("cpts.rec"));
    } else {
      CALDERA_RETURN_IF_ERROR(JournalRecordFileUndo("stream.rec"));
    }
    CALDERA_RETURN_IF_ERROR(JournalMcUndo(length_ + batch.size()));
    ++stats_.fsyncs;
    return wal_->Sync();
  }();
  if (!committed.ok()) {
    // Not committed: unwind the speculative records so the log never
    // presents an unacknowledged batch, and forget this commit's first
    // touches so the next commit journals those files. If the rollback
    // fails, poison the handle — the open-time scan will discard the tail.
    for (const std::string& rel : commit_touched_) touched_.erase(rel);
    Status rolled_back = wal_->RollbackTo(mark);
    if (!rolled_back.ok()) {
      broken_ = true;
      CALDERA_LOG_WARNING << "WAL rollback failed after " << committed.ToString()
                          << ": " << rolled_back.ToString();
    }
    return committed;
  }
  stats_.wal_bytes += wal_->size_bytes() - mark.size;
  stats_.undo_bytes += wal_->size_bytes() - frame_end;
  return Status::Ok();
}

Status StreamIngestor::ApplyBatch(uint64_t base,
                                  const std::vector<IngestTimestep>& batch,
                                  McExtendStats* mc_stats) {
  const uint64_t new_length = base + batch.size();
  std::string record;

  // 1. Stream record files.
  auto append_records =
      [&](const std::string& path,
          const std::function<void(const IngestTimestep&, std::string*)>&
              serialize) -> Status {
    CALDERA_ASSIGN_OR_RETURN(std::unique_ptr<RecordFileWriter> writer,
                             RecordFileWriter::OpenForAppend(path));
    if (writer->num_records() != base) {
      return Status::Corruption(path + " holds " +
                                std::to_string(writer->num_records()) +
                                " records, expected " + std::to_string(base));
    }
    for (const IngestTimestep& ts : batch) {
      record.clear();
      serialize(ts, &record);
      CALDERA_RETURN_IF_ERROR(writer->Append(record).status());
    }
    return writer->Finalize();
  };
  if (layout_ == DiskLayout::kSeparated) {
    CALDERA_RETURN_IF_ERROR(append_records(
        StreamMarginalsPath(dir_),
        [](const IngestTimestep& ts, std::string* out) {
          ts.marginal.AppendTo(out);
        }));
    CALDERA_RETURN_IF_ERROR(append_records(
        StreamCptsPath(dir_), [](const IngestTimestep& ts, std::string* out) {
          ts.transition.AppendTo(out);
        }));
  } else {
    CALDERA_RETURN_IF_ERROR(append_records(
        StreamCombinedPath(dir_),
        [](const IngestTimestep& ts, std::string* out) {
          ts.marginal.AppendTo(out);
          ts.transition.AppendTo(out);
        }));
  }

  // 2. Stream metadata; then the ingestor's own handle advances over the
  // appended timesteps.
  CALDERA_RETURN_IF_ERROR(UpdateStreamLength(dir_, new_length));
  CALDERA_RETURN_IF_ERROR(stored_->Refresh());

  // 3. MC index: extend along the right spine, composing from the freshly
  // finalized stream files. The B+ trees take no write: handles index the
  // appended timesteps in their in-memory tails.
  if (FileExists(dir_ + "/mc/mc.meta")) {
    StoredStream* raw = stored_.get();
    CALDERA_RETURN_IF_ERROR(McIndex::Extend(
        dir_ + "/mc",
        [raw](uint64_t t, Cpt* out) { return raw->ReadTransition(t, out); },
        new_length, mc_stats));
  }
  return Status::Ok();
}

Status StreamIngestor::Append(const std::vector<IngestTimestep>& batch) {
  if (broken_) {
    return Status::FailedPrecondition(
        "ingestor for " + dir_ +
        " is poisoned by an earlier failure; reopen to recover");
  }
  if (batch.empty()) return Status::Ok();
  CALDERA_RETURN_IF_ERROR(CommitToWal(batch));

  // Committed: from here the batch is applied either below or by the next
  // Open's recovery.
  {
    std::unique_lock<std::shared_mutex> guard = LockApply();
    Status applied = ApplyBatch(length_, batch, &stats_.mc);
    if (!applied.ok()) {
      broken_ = true;
      return applied;
    }
    length_ += batch.size();
    ++stats_.batches_committed;
    stats_.timesteps_appended += batch.size();
    if (options_.on_commit != nullptr) options_.on_commit(length_);
  }
  if (wal_->size_bytes() < kCheckpointWalBytes) return Status::Ok();
  return Checkpoint();
}

Status StreamIngestor::CommitWithoutApply(
    const std::vector<IngestTimestep>& batch) {
  if (broken_) {
    return Status::FailedPrecondition("ingestor for " + dir_ +
                                      " is poisoned; reopen to recover");
  }
  if (batch.empty()) return Status::Ok();
  CALDERA_RETURN_IF_ERROR(CommitToWal(batch));
  broken_ = true;  // The batch is durable but unapplied: exactly a crash.
  return Status::Ok();
}

}  // namespace caldera
