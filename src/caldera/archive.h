#ifndef CALDERA_CALDERA_ARCHIVE_H_
#define CALDERA_CALDERA_ARCHIVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "common/status.h"
#include "index/attribute_index.h"
#include "index/mc_index.h"
#include "markov/stream_io.h"

namespace caldera {

/// One archived Markovian stream plus whatever indexes have been built for
/// it. Indexes are discovered on Open; absent indexes are simply nullptr
/// and access methods report FailedPrecondition when they need one. Each
/// B+ tree carries an in-memory tail over the timesteps appended since its
/// file was built (OpenTreeIndex), so it answers for the whole stream.
class ArchivedStream {
 public:
  /// Opens the stream in `dir` and every index built for it. An index that
  /// fails to open (corrupt, truncated, bad checksum, a tree indexing more
  /// timesteps than the stream holds) fails the open.
  static Result<std::unique_ptr<ArchivedStream>> Open(
      const std::string& dir, size_t pool_pages = 256);

  /// Opens the stream data files alone, as if no index were built: all the
  /// naive scan (Algorithm 1) reads, so this opens whatever state the
  /// indexes are in. The facade's scan rescue runs on such a handle.
  static Result<std::unique_ptr<ArchivedStream>> OpenWithoutIndexes(
      const std::string& dir, size_t pool_pages = 256);

  /// Advances this handle to the stream as an ingest commit left it, at a
  /// cost of the appended timesteps: refreshes the stream and MC index
  /// (their files only grow at their ends, so cached pages stay valid, and
  /// the MC index keeps its span cache: McIndex::Refresh) and extends each
  /// B+ tree's tail over the appended timesteps (tree files are
  /// immutable). Only a tree whose file a compaction has since replaced is
  /// reopened. On error the handle is half-advanced and must be dropped.
  Status Refresh();

  StoredStream* stream() { return stream_.get(); }
  const StreamSchema& schema() const { return stream_->schema(); }
  uint64_t length() const { return stream_->length(); }
  const std::string& dir() const { return dir_; }

  /// BT_C / BT_P over one attribute; nullptr when not built.
  BTree* btc(size_t attr) {
    return attr < btc_.size() ? btc_[attr].tree.get() : nullptr;
  }
  BTree* btp(size_t attr) {
    return attr < btp_.size() ? btp_[attr].tree.get() : nullptr;
  }
  McIndex* mc() { return mc_.get(); }

  /// Aggregated index-page traffic since ResetStats.
  BufferPoolStats IndexIoStats() const;
  void ResetStats();

 private:
  ArchivedStream(std::string dir, size_t pool_pages)
      : dir_(std::move(dir)), pool_pages_(pool_pages) {}

  // A B+ tree and the inode of the file it was opened from.
  struct TreeSlot {
    std::unique_ptr<BTree> tree;
    uint64_t inode = 0;
  };

  // Opens `file` into its slot, its tail filled to the stream's length.
  Status OpenTree(const TreeIndexFile& file);

  std::string dir_;
  size_t pool_pages_;
  std::unique_ptr<StoredStream> stream_;
  std::vector<TreeSlot> btc_;
  std::vector<TreeSlot> btp_;
  std::unique_ptr<McIndex> mc_;
};

/// The on-disk catalog: a root directory with one subdirectory per stream.
/// Streams are written once, then indexed; queries run against
/// ArchivedStream handles.
class StreamArchive {
 public:
  explicit StreamArchive(std::string root) : root_(std::move(root)) {}

  Status Init() { return CreateDirectories(root_); }

  /// Archives `stream` under `name` with the chosen disk layout
  /// (Section 3.4.2).
  Status CreateStream(const std::string& name, const MarkovianStream& stream,
                      DiskLayout layout = DiskLayout::kSeparated,
                      uint32_t page_size = kDefaultPageSize);

  /// Builds the chronological B+ tree index on one attribute.
  Status BuildBtc(const std::string& name, size_t attr);

  /// Builds the probability-ordered B+ tree index on one attribute.
  Status BuildBtp(const std::string& name, size_t attr);

  /// Builds the Markov-chain index.
  Status BuildMc(const std::string& name, const McIndexOptions& options = {});

  /// Opens an archived stream and its indexes.
  Result<std::unique_ptr<ArchivedStream>> OpenStream(
      const std::string& name, size_t pool_pages = 256);

  /// Regenerates every rebuildable index of `name` from the (checksum
  /// verified) stream data files: existing BT_C / BT_P files are rebuilt
  /// for their attributes, and the MC index is rebuilt preserving its alpha
  /// when the old metadata is still readable. Only the canonical tree names
  /// of the schema's attributes count as trees (TreeIndexFiles); any other
  /// file is left alone. This is the recovery path after a Corruption
  /// report against an index file. FailedPrecondition while an ingestor of
  /// the stream is open, in any process (StreamIngestor::LockPath).
  Status RebuildIndexes(const std::string& name);

  /// Names of all archived streams, sorted.
  Result<std::vector<std::string>> ListStreams() const;

  bool HasStream(const std::string& name) const;

  std::string StreamDir(const std::string& name) const {
    return root_ + "/" + name;
  }
  const std::string& root() const { return root_; }

 private:
  // Builds tree index `file` of stream `name` (BuildTreeIndex).
  Status BuildTree(const std::string& name, const TreeIndexFile& file);

  std::string root_;
};

}  // namespace caldera

#endif  // CALDERA_CALDERA_ARCHIVE_H_
