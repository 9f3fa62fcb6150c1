#ifndef CALDERA_INGEST_INGESTOR_H_
#define CALDERA_INGEST_INGESTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/mc_index.h"
#include "markov/cpt.h"
#include "markov/distribution.h"
#include "markov/stream_io.h"
#include "storage/wal.h"

namespace caldera {

/// One new timestep for StreamIngestor::Append: the marginal distribution
/// of the stream's new last timestep plus the CPT from the previous
/// timestep into it.
struct IngestTimestep {
  Distribution marginal;
  Cpt transition;
};

/// Counters accumulated across the life of one StreamIngestor.
struct IngestStats {
  uint64_t batches_committed = 0;
  uint64_t timesteps_appended = 0;
  /// Bytes of WAL frames written (batch records + undo journal).
  uint64_t wal_bytes = 0;
  /// Batches replayed from the WAL by Open after a crash.
  uint64_t batches_recovered = 0;
  /// BT_C / BT_P key insertions performed.
  uint64_t btree_inserts = 0;
  /// Cumulative incremental MC index maintenance work. The right-spine
  /// property makes nodes_recomputed O(B/(alpha-1) + log_alpha n) for B
  /// appended timesteps — the ingest tests assert on exactly this.
  McExtendStats mc;
};

/// The live-ingestion pipeline (the "growing stream" counterpart of the
/// paper's archived streams): durable batch appends to a stream directory
/// with incremental maintenance of every index built for it.
///
/// Commit protocol, per Append(batch):
///   1. A batch frame (the new timesteps, serialized) is appended to the
///      stream's WAL and fsynced — the commit point. From here the batch
///      survives any crash.
///   2. Physical undo records are journaled behind it: pre-image pages of
///      every region the apply will overwrite in place, whole-file
///      snapshots of the small metadata files, and absent-markers for files
///      the apply will create. Synced again. Record files (stream and MC
///      levels) only grow at their ends, so each costs at most five page
///      pre-images (two pager headers, the meta page, two partial tail
///      pages) plus a truncate record per file — the journal does not grow
///      with the stream length.
///   3. The mutation runs: snippets are appended to the record files, the
///      stream length is patched, BT_C/BT_P trees receive the new keys, and
///      the MC index is extended along its right spine.
///   4. The WAL is reset — the batch is fully applied and durable.
///
/// A crash anywhere in 2-3 is repaired by the next Open: undo records are
/// restored in reverse order (returning data files bit-for-bit to their
/// pre-batch state), B+ trees are invariant-checked and rebuilt from the
/// stream if a torn page broke one, and the batch is re-applied from its
/// WAL frame. A crash in 1 leaves a torn frame the WAL truncates away: the
/// batch was never acknowledged, so the stream simply stays at its old
/// length. Either way, readers observe base or base+batch — never a mix.
///
/// Snapshot safety: record-file readers cache their directory in memory and
/// appends never move committed record bytes or directory entries, so
/// handles opened before a commit keep serving their snapshot until they
/// Refresh, which costs O(batch) (on_commit is where the facade does it
/// for its idle handles). B+ trees mutate in place, so
/// `Options::apply_mutex` (exclusive here, shared around queries — the
/// Caldera facade wires this up) serializes tree readers against the
/// apply.
class StreamIngestor {
 public:
  struct Options {
    /// Called after every durably applied batch — including batches
    /// replayed by Open during crash recovery — with the new stream length.
    /// The Caldera facade hooks its idle-handle refresh here (no epoch
    /// bump: an append keeps cached pages and span CPTs valid). Invoked
    /// while the apply lock (if any) is held.
    std::function<void(uint64_t new_length)> on_commit;
    /// When set, recovery and every batch apply hold this exclusively while
    /// mutating on-disk state. Readers of the same stream must hold it
    /// shared (Caldera::Execute does).
    std::shared_mutex* apply_mutex = nullptr;
  };

  /// Opens an ingestor for the stream archived in `dir`, replaying the WAL
  /// first if a previous writer crashed mid-commit.
  static Result<std::unique_ptr<StreamIngestor>> Open(const std::string& dir,
                                                      Options options);
  static Result<std::unique_ptr<StreamIngestor>> Open(const std::string& dir);

  /// Appends `batch` to the stream. On Ok the batch is fully applied and
  /// durable. On error, either the batch never reached the WAL commit point
  /// (state unchanged, Append may be retried on a fresh ingestor) or it is
  /// committed but incompletely applied — the ingestor is then poisoned
  /// (every later call fails FailedPrecondition) and the next Open finishes
  /// the batch via recovery.
  Status Append(const std::vector<IngestTimestep>& batch);

  /// Test/crash hook: runs the commit protocol through the WAL fsync (steps
  /// 1-2) and then stops, leaving exactly the state a crash at the start of
  /// the apply leaves behind. The ingestor is poisoned afterwards; the next
  /// Open replays the batch. The live-append example uses this to simulate
  /// a writer dying mid-batch for the CI recovery smoke test.
  Status CommitWithoutApply(const std::vector<IngestTimestep>& batch);

  /// Current (committed) stream length.
  uint64_t length() const { return length_; }
  const StreamSchema& schema() const { return schema_; }
  DiskLayout layout() const { return layout_; }
  const std::string& dir() const { return dir_; }
  const IngestStats& stats() const { return stats_; }
  /// True once a failed apply poisoned this handle (see Append).
  bool broken() const { return broken_; }
  /// True when Open truncated a torn WAL tail (an unacknowledged Append).
  bool wal_had_torn_tail() const { return wal_torn_tail_; }

  /// WAL file name inside a stream directory.
  static std::string WalPath(const std::string& dir);

 private:
  StreamIngestor(std::string dir, Options options)
      : dir_(std::move(dir)), options_(std::move(options)) {}

  /// Serializes the commit frame / re-applies one from the WAL. Decoded
  /// marginal and CPT ids must lie below `domain`, the stream schema's
  /// state count.
  static std::string EncodeBatch(uint64_t base,
                                 const std::vector<IngestTimestep>& batch);
  static Result<std::vector<IngestTimestep>> DecodeBatch(
      std::string_view payload, uint32_t domain, uint64_t* base);

  /// WAL commit: batch frame + undo journal + fsync (steps 1-2).
  Status CommitToWal(const std::vector<IngestTimestep>& batch);

  /// The in-place mutation (step 3). Deterministic, and restartable after
  /// an undo restore.
  Status ApplyBatch(uint64_t base, const std::vector<IngestTimestep>& batch);

  /// Crash recovery: undo-restore, B+ tree verification, batch redo.
  Status Recover();

  /// Opens stored_ over the stream as it is on disk.
  Status OpenStored();

  // Undo journaling (frames appended to the WAL before the mutation).
  Status JournalRange(const File& file, const std::string& rel,
                      uint64_t offset, uint64_t len);
  Status JournalTruncate(const std::string& rel, uint64_t size);
  Status JournalSnapshot(const std::string& rel);
  Status JournalAbsent(const std::string& rel);
  /// Journals everything an append to record file `rel` can overwrite, as
  /// RecordFileAppendRegions reports it: per file a few page pre-images
  /// plus a truncate record restoring the old size.
  Status JournalRecordFileUndo(const std::string& rel);
  /// Journals mc.meta and every MC level file the extension to
  /// `new_length` will touch (absent-markers for brand-new levels).
  /// Corruption, before the commit point, if mc.meta's domain is not the
  /// stream's state count.
  Status JournalMcUndo(uint64_t new_length);
  /// Corruption, touching nothing, if the record names a file no journal
  /// covers or would grow a file.
  Status RestoreUndoRecord(const WalRecord& record);

  /// Re-checks every BT_C/BT_P file and rebuilds any that an interrupted
  /// apply left structurally broken (stream files must already be restored
  /// to a consistent state).
  Status VerifyOrRebuildTrees();

  std::string dir_;
  Options options_;
  std::unique_ptr<Wal> wal_;
  // The stream at its committed length, open across commits: MC Extend's
  // transition source and the tree rebuilds' input. ApplyBatch refreshes
  // it once the stream files and length are written.
  std::unique_ptr<StoredStream> stored_;
  DiskLayout layout_ = DiskLayout::kSeparated;
  uint64_t length_ = 0;
  StreamSchema schema_;
  IngestStats stats_;
  bool broken_ = false;
  bool wal_torn_tail_ = false;
};

}  // namespace caldera

#endif  // CALDERA_INGEST_INGESTOR_H_
