#ifndef CALDERA_INGEST_INGESTOR_H_
#define CALDERA_INGEST_INGESTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/mc_index.h"
#include "markov/cpt.h"
#include "markov/distribution.h"
#include "markov/stream_io.h"
#include "storage/file.h"
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
  /// Batches Append committed through this ingestor.
  uint64_t batches_committed = 0;
  /// Timesteps of those batches. Batches a recovering Open redid are
  /// counted in batches_recovered only: their timesteps were appended by
  /// the writer that committed them.
  uint64_t timesteps_appended = 0;
  /// Bytes of WAL frames written (batch records + undo journal).
  uint64_t wal_bytes = 0;
  /// The part of wal_bytes that is undo records.
  uint64_t undo_bytes = 0;
  /// Batches redone from the WAL by Open after a crash: every batch
  /// committed since the last checkpoint.
  uint64_t batches_recovered = 0;
  /// BT_C / BT_P entries written by tree compactions (a commit writes no
  /// tree).
  uint64_t btree_inserts = 0;
  /// fsync calls made: one per commit, plus one per touched file and one
  /// for the WAL reset per checkpoint, plus two per compacted tree.
  uint64_t fsyncs = 0;
  /// Checkpoints completed (Checkpoint, automatic, at close or closing a
  /// recovery).
  uint64_t checkpoints = 0;
  /// Cumulative incremental MC index maintenance work of the batches this
  /// ingestor committed (a recovering Open's redo is not counted). The
  /// right-spine property makes nodes_recomputed O(B/(alpha-1) +
  /// log_alpha n) for B appended timesteps — the ingest tests assert on
  /// exactly this.
  McExtendStats mc;
};

/// The live-ingestion pipeline (the "growing stream" counterpart of the
/// paper's archived streams): durable batch appends to a stream directory
/// with incremental maintenance of every index built for it.
///
/// Commit protocol. The WAL spans a checkpoint window: every batch
/// committed since the last checkpoint stays in it. Per Append(batch):
///   1. A batch frame (the new timesteps, serialized) is appended to the
///      WAL, followed by undo records for the files this batch is the
///      first in the window to touch: a snapshot of meta.bin and mc.meta,
///      and per record file its size (a truncate record) plus pre-images
///      of the pages below that size an append rewrites (pager header,
///      meta page, partial tail page); absent-markers for MC levels the
///      batch creates. Later batches of the window rewrite only those
///      pages or pages past the journaled size, so they journal nothing.
///      One fsync makes frame and records durable — the commit point.
///   2. The apply runs, with no fsync: snippets are appended to the record
///      files, the stream length is patched, and the MC index is extended
///      along its right spine. The B+ tree files are not written: each
///      reader handle indexes the appended timesteps in its trees'
///      in-memory tails (ArchivedStream::Refresh).
/// A checkpoint fsyncs each file touched in the window once, then resets
/// the WAL, then compacts every tree whose tail has grown to
/// 1/kTreeCompactionDivisor of its file (CompactTreeIndex: a new file
/// renamed over the old). It runs when the log passes kCheckpointWalBytes,
/// on Checkpoint(), when a healthy ingestor is destroyed, and at the end of
/// recovery.
///
/// Recovery (Open with frames in the log) restores the undo records,
/// newest first, which returns every data file to its checkpoint state
/// whatever subset of the window's unsynced writes reached disk; redoes
/// every frame in order through the same apply, so the result is
/// bit-identical to an uninterrupted run; and checkpoints. The trees need
/// nothing: no commit wrote them, and a compaction indexes at most the
/// length of the checkpoint before it. A crash before a commit's fsync
/// loses only that unacknowledged batch: the WAL truncates its torn frame.
/// Either way, readers observe a batch boundary — never a mix.
///
/// Snapshot safety: appends never move committed record bytes or directory
/// entries, and a record-file reader keeps its directory and partial last
/// page in memory, so a handle serves its snapshot with no lock until it
/// Refreshes (O(batch)). The pages an append rewrites in place (pager
/// headers, meta and tail pages, mc.meta) are read only by an open or a
/// Refresh, which hold `Options::apply_mutex` shared against the apply. A
/// compaction renames a whole new tree file over the old. Recovery does
/// rewrite pages a handle reads (it restores pre-images, then redoes), so
/// the facade retires its handles in Open's on_commit call and reruns the
/// queries that overlapped it.
class StreamIngestor {
 public:
  struct Options {
    /// Called with the new stream length after every committed batch is
    /// applied, and once after an Open whose recovery redid batches. The
    /// Caldera facade records the length for its next borrow to refresh
    /// to; the call from Open also bumps its epoch. Invoked while the apply
    /// lock (if any) is held.
    std::function<void(uint64_t new_length)> on_commit;
    /// When set, recovery and every batch apply hold this exclusively while
    /// mutating on-disk state; opening or refreshing a reader of the stream
    /// holds it shared (Caldera::GetStream's callers do).
    std::shared_mutex* apply_mutex = nullptr;
  };

  /// WAL size past which a commit runs a checkpoint. At batch 1 a window
  /// then holds hundreds of commits, so the per-window undo records and
  /// checkpoint fsyncs amortize to a few hundred bytes and well under one
  /// fsync per commit, while recovery redoes at most this much log.
  static constexpr uint64_t kCheckpointWalBytes = uint64_t{1} << 20;

  /// Opens an ingestor for the stream archived in `dir`, recovering first
  /// if a previous writer left batches in the WAL (a crash, or a poisoned
  /// ingestor, since the last checkpoint). FailedPrecondition while another
  /// ingestor or an index rebuild of the stream holds LockPath, in any
  /// process.
  static Result<std::unique_ptr<StreamIngestor>> Open(const std::string& dir,
                                                      Options options);
  static Result<std::unique_ptr<StreamIngestor>> Open(const std::string& dir);

  /// Checkpoints a healthy ingestor (see the class comment), unless
  /// nothing was committed since the last one.
  ~StreamIngestor();

  /// Appends `batch` to the stream. On Ok the batch is applied and durable
  /// (its frame is fsynced). On error, either the batch never reached the
  /// WAL commit point (state unchanged, Append may be retried) or it is
  /// committed but its apply or checkpoint failed — the ingestor is then
  /// poisoned (every later call fails FailedPrecondition) and the next
  /// Open finishes the batch via recovery.
  Status Append(const std::vector<IngestTimestep>& batch);

  /// Makes every committed batch durable in the data files and empties the
  /// WAL. A no-op when nothing was committed since the last checkpoint; a
  /// failure poisons the ingestor, and the next Open recovers.
  Status Checkpoint();

  /// Test/crash hook: runs the commit protocol through the WAL fsync (step
  /// 1) and then stops, leaving exactly the state a crash at the start of
  /// the apply leaves behind. The ingestor is poisoned afterwards; the next
  /// Open redoes the window, this batch included. The live-append example
  /// uses this to simulate a writer dying mid-batch for the CI recovery
  /// smoke test.
  Status CommitWithoutApply(const std::vector<IngestTimestep>& batch);

  /// Current (committed) stream length.
  uint64_t length() const { return length_; }
  const StreamSchema& schema() const { return schema_; }
  DiskLayout layout() const { return layout_; }
  const std::string& dir() const { return dir_; }
  const IngestStats& stats() const { return stats_; }
  /// True once a failed apply or checkpoint poisoned this handle (see
  /// Append).
  bool broken() const { return broken_; }

  /// WAL file name inside a stream directory.
  static std::string WalPath(const std::string& dir);
  /// The stream's writer lock (FileLock): an ingestor holds it for its
  /// lifetime and StreamArchive::RebuildIndexes for the rebuild, so a
  /// stream has one writer across processes. The kernel drops it when the
  /// holder dies, so a crashed writer's stream stays open to the
  /// recovering one.
  static std::string LockPath(const std::string& dir);

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

  /// WAL commit: batch frame + first-touch undo records + fsync (step 1).
  Status CommitToWal(const std::vector<IngestTimestep>& batch);

  /// The in-place mutation (step 2). Deterministic, and restartable after
  /// an undo restore. Adds the MC extension's work to `mc_stats` unless it
  /// is null.
  Status ApplyBatch(uint64_t base, const std::vector<IngestTimestep>& batch,
                    McExtendStats* mc_stats);

  /// Undo restore and redo of the frames the WAL holds, then a checkpoint;
  /// with an empty log it only opens the stream.
  Status Recover();

  /// Opens stored_ over the stream as it is on disk.
  Status OpenStored();
  /// Compacts every tree of the stream (TreeIndexFiles of schema_) that is
  /// due (TreeCompactionDue at length_); the end of a checkpoint.
  Status CompactTrees();

  /// The apply lock (Options::apply_mutex), or an empty lock without one.
  std::unique_lock<std::shared_mutex> LockApply();

  // Undo journaling (records appended to the WAL behind the batch frame).
  // Each journals `rel`, a path relative to dir_, only on its first touch
  // in the window, and marks it touched.
  bool FirstTouch(const std::string& rel);
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

  std::string dir_;
  Options options_;
  // The flock on LockPath(dir_), declared before the file members so that
  // it is released only after they are closed.
  std::unique_ptr<FileLock> lock_;
  std::unique_ptr<Wal> wal_;
  // The stream at its committed length, open across commits: MC Extend's
  // transition source and the compactions' input. ApplyBatch refreshes it
  // once the stream files and length are written.
  std::unique_ptr<StoredStream> stored_;
  // Files (relative to dir_) with undo records in the WAL: the ones the
  // window has touched, which the next checkpoint syncs.
  std::set<std::string> touched_;
  // The ones the commit in progress added, dropped again if it fails.
  std::vector<std::string> commit_touched_;
  DiskLayout layout_ = DiskLayout::kSeparated;
  uint64_t length_ = 0;
  StreamSchema schema_;
  IngestStats stats_;
  // Set until Open gets past the WAL open, and again if recovery fails,
  // so that closing a failed open never checkpoints.
  bool broken_ = true;
};

}  // namespace caldera

#endif  // CALDERA_INGEST_INGESTOR_H_
