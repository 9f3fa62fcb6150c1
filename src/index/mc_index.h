#ifndef CALDERA_INDEX_MC_INDEX_H_
#define CALDERA_INDEX_MC_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/span_cache.h"
#include "markov/cpt.h"
#include "markov/stream.h"
#include "markov/stream_io.h"
#include "storage/record_file.h"

namespace caldera {

/// Options for building a Markov-chain index (Section 3.3.1).
struct McIndexOptions {
  /// Branching factor: level i stores CPT products spanning alpha^i steps.
  /// Larger alpha = less storage, more multiplications per lookup.
  uint32_t alpha = 2;
};

/// Source of raw (level-0) transitions: returns the CPT *into* timestep t.
/// Usually bound to StoredStream::ReadTransition.
using TransitionSource = std::function<Status(uint64_t t, Cpt* out)>;

/// Decoded mc.meta: what Open needs to map the level files, and what the
/// ingest path needs to plan an incremental extension (which level files
/// will gain entries) before touching disk.
struct McMetaSummary {
  uint64_t stream_length = 0;
  uint32_t domain = 0;
  /// Entry count per stored level (level 1 first).
  std::vector<uint64_t> level_counts;
  /// The options the index was built with.
  McIndexOptions options;
};

/// What one McIndex::Extend call actually recomputed — the incremental
/// maintenance counters the ingest tests assert on: appending B timesteps
/// completes at most one block per level per timestep, so nodes_recomputed
/// is bounded by B / (alpha - 1) + log_alpha(n) overall and by the level
/// count for a single-timestep append. Entries left of the right spine are
/// never touched.
struct McExtendStats {
  /// Index entries (internal product nodes) composed and appended.
  uint64_t nodes_recomputed = 0;
  /// Level files that gained entries.
  uint64_t levels_touched = 0;
  /// Brand-new level files created (the tree grew in height).
  uint64_t levels_added = 0;
};

/// The Markov-chain index: a tree of precomputed CPT products that yields
/// the conditional probability table relating ANY two stream timesteps in
/// O(2 log_alpha(gap)) lookups instead of a full scan (Figure 7).
///
/// Level i (i >= 1) holds floor((T-1)/alpha^i) entries; entry k spans
/// timesteps [k*alpha^i, (k+1)*alpha^i]. Level 0 is the raw stream itself
/// and is never duplicated. LevelCounts states this layout; Build, Extend,
/// ReadMeta and the ingest journal all take it from there.
class McIndex {
 public:
  /// Entry count per stored level (level 1 first) of an index over a
  /// stream of `stream_length` timesteps: level i exists while
  /// alpha^i <= length - 1. Empty for length < 2 or alpha < 2; never
  /// overflows, whatever the inputs.
  static std::vector<uint64_t> LevelCounts(uint64_t stream_length,
                                           const McIndexOptions& options);

  /// The record file holding `level`'s entries in index directory `dir`.
  static std::string LevelPath(const std::string& dir, uint32_t level);

  /// Builds the index over a `length`-timestep stream of `domain` states
  /// into directory `dir` (one record file per level plus a metadata file):
  /// an Extend from an empty index, so it streams level-0 CPTs from
  /// `transitions` and holds no level in memory. Syncs every file it
  /// wrote.
  static Status Build(const std::string& dir, TransitionSource transitions,
                      uint64_t length, uint32_t domain,
                      const McIndexOptions& options = {});
  /// Build over an in-memory stream's transitions.
  static Status Build(const MarkovianStream& stream, const std::string& dir,
                      const McIndexOptions& options = {});

  /// Opens a previously built index. `transitions` supplies level-0 CPTs
  /// for spans the stored levels cannot cover.
  static Result<std::unique_ptr<McIndex>> Open(const std::string& dir,
                                               TransitionSource transitions,
                                               size_t pool_pages = 64);

  /// Reads and decodes the on-disk metadata without opening the level files:
  /// the one mc.meta decoder, shared by Open and Extend. Corruption unless
  /// the file has exactly the documented layout and its level counts equal
  /// LevelCounts of its stream length and options.
  static Result<McMetaSummary> ReadMeta(const std::string& dir);

  /// Incremental maintenance for the live-ingestion path: extends the index
  /// on disk from its recorded stream length to `new_length` without
  /// rebuilding. Because entry k of level i is the immutable product over
  /// timesteps [k*alpha^i, (k+1)*alpha^i], growing the stream only ever
  /// *appends* newly completed blocks along the right spine — this
  /// recomputes exactly those entries (Build runs the same append from an
  /// empty index, so the resulting files are byte-identical to a full
  /// build) and rewrites the metadata. `transitions` must serve raw CPTs up
  /// to new_length. Open handles on the index keep serving their snapshot
  /// until Refresh advances them. Nothing is fsynced: the ingest WAL makes
  /// the extension durable.
  static Status Extend(const std::string& dir, TransitionSource transitions,
                       uint64_t new_length, McExtendStats* stats = nullptr);

  /// Advances this handle to the index as Extend left it: refreshes the
  /// levels Extend grew (RecordFileReader::Refresh) and opens the levels
  /// it added, so the cost follows the appended entries, not the index
  /// size. Corruption if mc.meta changed alpha or domain, shrank, or
  /// disagrees with a level file.
  /// Stored entries never change, so cached pages stay valid, and so does
  /// every span in the span cache: ComputeCpt uses a level block only if
  /// `cur + span <= to` and its block index is `< num_records()`. Every
  /// entry an append adds, at a new level or an old one, ends past the old
  /// `length - 1`, which is `>= to` for any span composed before the
  /// append. So a cached span never needs the new entries.
  Status Refresh();

  /// Computes CPT(from -> to), i.e. the product of the per-step transitions
  /// into from+1 .. to. Requires from < to.
  Status ComputeCpt(uint64_t from, uint64_t to, Cpt* out);

  /// ComputeCpt through this handle's span cache: spans of gap >= 2 are
  /// served from the cache when present (hit) or composed once and
  /// inserted (miss). Gap-1 spans fall through to a plain ComputeCpt. The
  /// returned CPT is immutable and stays alive past its eviction.
  Result<std::shared_ptr<const Cpt>> GetSpanCpt(uint64_t from, uint64_t to);

  /// Drops every cached span, so the next GetSpanCpt of each composes cold.
  void ClearSpanCache() { span_cache_.Clear(); }

  /// Byte budget of each handle's span cache.
  static constexpr size_t kSpanCacheBytes = 32u << 20;

  /// Restricts lookups to levels >= `level` (level-0 residues still come
  /// from the raw stream). Models the paper's "omit lower index levels"
  /// experiment (Figure 11(a)); also lowers effective storage. Clears the
  /// span cache: another decomposition composes in another order, so the
  /// answer can differ in its last bits.
  Status SetMinLevel(uint32_t level);

  uint32_t alpha() const { return alpha_; }
  /// Number of stored levels (level 0, the raw stream, is not counted).
  uint32_t num_levels() const {
    return static_cast<uint32_t>(levels_.size()) - 1;
  }
  uint64_t stream_length() const { return stream_length_; }
  /// State count the index was built over (the stream schema's).
  uint32_t domain_size() const { return domain_size_; }

  /// Bytes of CPT payload stored at levels >= min_level.
  uint64_t StoredBytes() const;

  /// Count of index-entry fetches (any level >= 1) since ResetStats.
  uint64_t entry_fetches() const { return entry_fetches_; }
  /// Count of raw (level-0) transition fetches since ResetStats.
  uint64_t raw_fetches() const { return raw_fetches_; }
  /// Span-cache traffic through this index since ResetStats.
  uint64_t span_cache_hits() const { return span_cache_hits_; }
  uint64_t span_cache_misses() const { return span_cache_misses_; }
  /// Wall seconds spent composing CPTs in ComputeCpt since ResetStats.
  double compose_seconds() const { return compose_seconds_; }
  void ResetStats();

  BufferPoolStats IoStats() const;

 private:
  McIndex() = default;

  Status FetchEntry(uint32_t level, uint64_t block, Cpt* out);
  // Opens the level files `meta` lists beyond those already open.
  Status OpenNewLevels(const McMetaSummary& meta);

  std::string dir_;
  uint32_t alpha_ = 2;
  uint64_t stream_length_ = 0;
  uint32_t domain_size_ = 0;
  uint32_t min_level_ = 1;
  size_t pool_pages_ = 64;
  TransitionSource transitions_;
  std::vector<std::unique_ptr<RecordFileReader>> levels_;  // [0] unused.
  std::vector<uint64_t> level_spans_;  // alpha^i per level.
  SpanCptCache span_cache_{kSpanCacheBytes};
  uint64_t entry_fetches_ = 0;
  uint64_t raw_fetches_ = 0;
  uint64_t span_cache_hits_ = 0;
  uint64_t span_cache_misses_ = 0;
  double compose_seconds_ = 0.0;
  // Holds an entry that straddles pages; others parse in the pinned page.
  std::string scratch_;
  // ComputeCpt's decode and composition targets, reused across calls.
  Cpt block_;
  Cpt composed_;
};

}  // namespace caldera

#endif  // CALDERA_INDEX_MC_INDEX_H_
