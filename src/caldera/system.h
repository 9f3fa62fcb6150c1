#ifndef CALDERA_CALDERA_SYSTEM_H_
#define CALDERA_CALDERA_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "caldera/access_method.h"
#include "caldera/archive.h"
#include "caldera/planner.h"
#include "ingest/ingestor.h"
#include "query/regular_query.h"

namespace caldera {

/// Execution knobs for Caldera::Execute.
struct ExecOptions {
  /// Access method; kAuto lets the planner choose.
  AccessMethodKind method = AccessMethodKind::kAuto;
  /// For top-k execution: number of matches (0 = full signal).
  size_t k = 0;
  /// For threshold execution: return only matches with probability above
  /// this (0 = disabled). Used with method kTopK or kAuto on fixed-length
  /// queries; other methods filter their signal.
  double threshold = 0.0;
  /// Allow the approximate semi-independent method in auto planning.
  bool approximation_ok = false;
  /// Buffer-pool pages per opened file.
  size_t pool_pages = 256;
  /// Graceful degradation: when the execution fails with Corruption,
  /// IoError or FailedPrecondition (an index that will not open, is
  /// missing, or breaks mid-query), rerun it once as the always-available
  /// naive scan (Algorithm 1) over the stream data files alone, instead of
  /// failing. A rescued result reports stats.scan_fallbacks = 1, and
  /// stats.corruption_events = 1 when the failure was a Corruption. Errors
  /// of the scan itself (the stream data is damaged too) always propagate.
  bool fallback_to_scan = false;
};

/// The Caldera system facade (Figure 1): an archive of smoothed Markovian
/// streams plus Regular-query execution over them.
///
/// Queries (Execute, Plan, ExecuteBatch) are thread-safe, any number of them
/// on one stream at once. An ArchivedStream is single-threaded (its buffer
/// pools and span cache are not locked), so GetStream *lends* handles: each
/// caller gets a handle no other caller holds, and releasing it returns it
/// to the stream's idle handles for the next query to reuse warm, pages and
/// composed MC spans alike. Every released handle is kept, and one is
/// opened only when all of its stream's handles of that pool size are
/// lent, so a stream holds at most as many handles as it ever had
/// concurrent borrowers; only an epoch bump drops them. After an ingest
/// commit, the next GetStream refreshes the handle it lends; a commit
/// waits only for such borrows (StreamMutationLock), not for queries.
/// Handles are epoch-versioned: InvalidateStreams never dangles an
/// outstanding handle, it only stops the facade from lending stale ones
/// again. Retiring a handle is the one way its cached state is
/// invalidated.
///
/// Typical use:
///   Caldera system("/data/archive");
///   system.archive()->CreateStream("bob", stream);
///   system.archive()->BuildBtc("bob", 0);
///   system.InvalidateStreams();  // new index => reopen idle handles
///   auto result = system.Execute("bob", query, {});
class Caldera {
 public:
  explicit Caldera(std::string archive_root)
      : archive_(std::move(archive_root)) {}

  StreamArchive* archive() { return &archive_; }

  /// Runs `query` against stream `stream_name` using the requested (or
  /// planned) access method. With options.k > 0 and a fixed-length query
  /// the result holds the top-k matches; otherwise the full signal. A run
  /// that overlapped a recovering OpenForIngest of the stream is repeated;
  /// InvalidateStreams and RebuildIndexes never cause a rerun.
  Result<QueryResult> Execute(const std::string& stream_name,
                              const RegularQuery& query,
                              const ExecOptions& options = {});

  /// The plan Execute would choose, without running it.
  Result<PlanDecision> Plan(const std::string& stream_name,
                            const RegularQuery& query,
                            const ExecOptions& options = {});

  /// Lends a handle no other caller holds: an idle handle of the stream at
  /// this pool size, refreshed first if an ingest commit has grown the stream
  /// since, else a newly opened one. Releasing it returns it for reuse
  /// unless the epoch has moved on. Thread-safe; call under a shared hold
  /// of `StreamMutationLock` while an ingestor may commit; `Execute` and
  /// `Plan` do. The handle stays valid past InvalidateStreams or the
  /// facade and needs no lock to read, but a read that overlaps a
  /// recovering OpenForIngest may see pre-redo bytes: Execute reruns only
  /// such a query, counting recoveries per stream; an invalidation alone
  /// never makes a lent handle's reads stale.
  Result<std::shared_ptr<ArchivedStream>> GetStream(const std::string& name,
                                                    size_t pool_pages = 256);

  /// Starts a new handle epoch (e.g. after building new indexes): idle
  /// handles are dropped now and lent ones on release. Outstanding handles
  /// remain valid — they see the archive as of their open. Returns the new
  /// epoch. Thread-safe.
  uint64_t InvalidateStreams();

  /// The current handle epoch (starts at 0, bumped by
  /// InvalidateStreams). Thread-safe.
  uint64_t stream_epoch() const;

  /// Recovery after index corruption: rebuilds every rebuildable index of
  /// `stream_name` from the (checksum-verified) stream data files and
  /// invalidates idle handles so the next query sees the fresh indexes.
  /// FailedPrecondition while an ingestor of the stream is open.
  Status RebuildIndexes(const std::string& stream_name);

  /// Opens a live-append handle for `stream_name` (the growing-stream
  /// ingestion pipeline, src/ingest/). The open recovers from the stream's
  /// WAL if a previous writer died before a checkpoint, then retires every
  /// handle (NotifyStreamMutation), so the next query opens a new one with
  /// cold pages and an empty span cache. A commit applies under the stream
  /// lock and records the new length; the next GetStream refreshes the
  /// handle it lends (ArchivedStream::Refresh, O(batch)), so a query sees
  /// the pre- or post-append stream, never a mix, with warm pages and span
  /// CPTs. A commit bumps no epoch.
  /// One writer per stream: while an ingestor is alive, in this or any
  /// other process, a second OpenForIngest and RebuildIndexes of the
  /// stream fail with FailedPrecondition (its checkpoints rename the
  /// stream's tree files; StreamIngestor::LockPath).
  Result<std::unique_ptr<StreamIngestor>> OpenForIngest(
      const std::string& stream_name);

  /// The invalidation behind every in-place rewrite of a stream's files
  /// (index rebuild, ingest recovery): InvalidateStreams, so the next
  /// GetStream opens a new handle, with its own empty span cache, against
  /// the new on-disk state. Ingest commits do not come here: they only
  /// append, and the next borrow refreshes the handle it lends instead.
  void NotifyStreamMutation();

  /// The per-stream reader/writer lock that serializes in-place mutation
  /// (ingest apply, index rebuild — exclusive) against borrowing a handle
  /// (GetStream, which opens or refreshes it — shared). Stable address for
  /// the life of the facade. The pages an append rewrites in place (record
  /// file headers, meta and tail pages, mc.meta) are read only by an open
  /// or a refresh, and tree files are replaced whole, so a query holds the
  /// lock only while it borrows.
  std::shared_mutex* StreamMutationLock(const std::string& stream_name);

 private:
  using IdleKey = std::pair<std::string, size_t>;  // (stream, pool_pages)
  // Guarded by `mu`. Lent handles reach it through a weak_ptr, so one
  // released after the facade is gone is simply destroyed.
  struct State {
    std::mutex mu;
    uint64_t epoch = 0;
    // Every idle handle of each key, opened under `epoch`.
    std::multimap<IdleKey, std::unique_ptr<ArchivedStream>> idle;
    // Length of each stream as its last ingest commit left it; GetStream
    // refreshes a shorter idle handle before lending it.
    std::map<std::string, uint64_t> committed_lengths;
    // Recovering OpenForIngest calls per stream, counted under the stream's
    // exclusive lock; Execute reruns a query this moved under.
    std::map<std::string, uint64_t> recoveries;
    // Lock order: a stream's mutation lock is always acquired BEFORE mu
    // (borrow: stream lock -> GetStream -> mu; ingest commit: stream lock
    // -> on_commit -> mu). mu is never held while acquiring a stream lock.
    // unique_ptr keeps addresses stable across map growth.
    std::map<std::string, std::unique_ptr<std::shared_mutex>> stream_locks;
  };

  // GetStream under a shared hold of the stream's mutation lock.
  Result<std::shared_ptr<ArchivedStream>> BorrowStream(const std::string& name,
                                                       size_t pool_pages);

  // The stream's count of recovering opens (State::recoveries).
  uint64_t RecoveryCount(const std::string& stream_name) const;

  // One run of Execute, which repeats it if a recovery overlapped it.
  Result<QueryResult> ExecuteOnce(const std::string& stream_name,
                                  const RegularQuery& query,
                                  const ExecOptions& options);

  StreamArchive archive_;
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace caldera

#endif  // CALDERA_CALDERA_SYSTEM_H_
