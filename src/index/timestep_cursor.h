#ifndef CALDERA_INDEX_TIMESTEP_CURSOR_H_
#define CALDERA_INDEX_TIMESTEP_CURSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "index/btc_index.h"
#include "index/btp_index.h"

namespace caldera {

// The producer half of the cursor-based execution pipeline: every access
// method is "a cursor that yields the query-relevant timesteps in the order
// Reg must visit them, plus a gap policy" (Algorithms 1-5 share this shape).
// Cursors live at the index layer — they touch B+ trees and postings, never
// the Reg operator — and the shared executor (caldera/executor.h) turns the
// yielded items into Reg updates.

/// One yielded pipeline item.
struct CursorItem {
  uint64_t time = 0;
  /// Reset the Reg operator and Initialize at this timestep (interval
  /// starts of the merge-join cursor, candidate starts of the threshold
  /// cursor, and the very first item of every cursor).
  bool restart = false;
  /// Append Reg's probability at this timestep to the output signal. The
  /// threshold cursor sets false everywhere: its signal is the collected
  /// best-matches set, not the per-timestep trace.
  bool emit = true;
  /// Feed the probability back to the cursor via Observe() — the Threshold
  /// Algorithm's result feedback (tightens the pruning floor).
  bool observe = false;
};

/// Counters a cursor contributes to ExecStats (the executor owns the rest).
struct CursorStats {
  uint64_t relevant_timesteps = 0;
  uint64_t pruned_candidates = 0;
};

/// Pull-based producer of query-relevant timesteps.
///
/// Contract: Next() yields items whose non-restart times strictly increase
/// by exactly 1 from the previous item (an adjacent step); any jump must be
/// flagged `restart` or left to the executor's gap policy (which sees
/// gap = time - previous time > 1). Restart items may move backwards in
/// time (overlapping top-k candidate intervals do).
class RelevantTimestepCursor {
 public:
  virtual ~RelevantTimestepCursor() = default;

  /// Yields the next item, or nullopt when exhausted.
  virtual Result<std::optional<CursorItem>> Next() = 0;

  /// Result feedback for items with observe = true.
  virtual void Observe(uint64_t time, double prob) {
    (void)time;
    (void)prob;
  }

  /// Fills the cursor-owned counters. `items_yielded` is how many items the
  /// executor pulled; by default that is the relevant-timestep count.
  virtual void ContributeStats(uint64_t items_yielded,
                               CursorStats* stats) const {
    stats->relevant_timesteps = items_yielded;
  }

  /// True when the cursor collects its own result set instead of emitting
  /// per-timestep entries; the executor then builds the signal from
  /// TakeCollected() (the threshold cursor's best-matches set).
  virtual bool collects_signal() const { return false; }

  /// For cursors that collect their own result set (threshold cursor):
  /// the (time, probability) entries to report, already ordered.
  virtual std::vector<std::pair<uint64_t, double>> TakeCollected() {
    return {};
  }

  /// Short name for EXPLAIN output, e.g. "btc-merge-join".
  virtual const char* name() const = 0;
};

// ---------------------------------------------------------------------------
// Index-probing building blocks (the temporally-aware join of Section 3.1).
// ---------------------------------------------------------------------------

/// The temporally-aware index join of Section 3.1: given cursors with link
/// offsets (cursor j covers the predicate of link offset_j), enumerates, in
/// increasing order, the interval start times s such that cursor j holds an
/// entry at time s + offset_j for every j. Links without an indexable
/// predicate simply contribute no cursor (the paper's "relaxed"
/// intersection).
///
/// This is a merge-join-style walk: each round computes the maximal
/// candidate start implied by the current cursor positions and re-seeks all
/// cursors to it; cost is linear in the index entries touched.
class IntervalIntersector {
 public:
  IntervalIntersector(std::vector<PredicateCursor> cursors,
                      std::vector<uint64_t> offsets)
      : cursors_(std::move(cursors)), offsets_(std::move(offsets)) {}

  /// Returns the next intersection start time, or nullopt when exhausted.
  Result<std::optional<uint64_t>> Next();

 private:
  std::vector<PredicateCursor> cursors_;
  std::vector<uint64_t> offsets_;
  uint64_t next_start_min_ = 0;
};

/// Merges a sorted sequence of candidate starts (for an n-link query) into
/// maximal processing intervals [first, last]: candidates whose intervals
/// overlap or abut are combined so the Reg operator processes each timestep
/// at most once (Section 3.1's overlapping-interval optimization).
class IntervalMerger {
 public:
  explicit IntervalMerger(uint64_t interval_length)
      : interval_length_(interval_length) {}

  struct Interval {
    uint64_t first;
    uint64_t last;  // Inclusive.
  };

  /// Feeds the next candidate start (strictly increasing); returns a
  /// completed interval if this start cannot extend the pending one.
  std::optional<Interval> Add(uint64_t start);

  /// Returns the final pending interval, if any.
  std::optional<Interval> Flush();

 private:
  uint64_t interval_length_;
  bool has_pending_ = false;
  Interval pending_{0, 0};
};

// ---------------------------------------------------------------------------
// The per-index RelevantTimestepCursor implementations.
// ---------------------------------------------------------------------------

/// Algorithm 1's producer: every timestep of the stream, in order.
class FullScanCursor final : public RelevantTimestepCursor {
 public:
  explicit FullScanCursor(uint64_t stream_length)
      : stream_length_(stream_length) {}

  Result<std::optional<CursorItem>> Next() override;
  const char* name() const override { return "full-scan"; }

 private:
  uint64_t stream_length_;
  uint64_t next_ = 0;
};

/// Algorithm 2's producer: BT_C merge-join of the per-link predicate
/// cursors, with overlapping candidate intervals merged. Yields every
/// timestep of each merged interval; interval starts carry restart = true,
/// so the (restart) gap policy reproduces the per-interval Reg resets.
class MergeJoinCursor final : public RelevantTimestepCursor {
 public:
  /// `interval_length` is the query's link count n; candidate starts whose
  /// interval would extend past `stream_length` end the enumeration (starts
  /// are increasing, so no later start can fit either).
  MergeJoinCursor(std::vector<PredicateCursor> cursors,
                  std::vector<uint64_t> offsets, uint64_t interval_length,
                  uint64_t stream_length);

  Result<std::optional<CursorItem>> Next() override;
  void ContributeStats(uint64_t items_yielded,
                       CursorStats* stats) const override;
  const char* name() const override { return "btc-merge-join"; }

 private:
  /// Loads the next merged, clamped interval into position_/interval_end_.
  Result<bool> PullInterval();

  IntervalIntersector intersector_;
  IntervalMerger merger_;
  uint64_t interval_length_;
  uint64_t stream_length_;
  uint64_t candidates_ = 0;  // Admitted intersection starts.
  bool in_interval_ = false;
  bool at_interval_start_ = false;
  bool exhausted_ = false;
  uint64_t position_ = 0;
  uint64_t interval_end_ = 0;
};

/// Algorithms 4 and 5's producer: the chronological union of the query's
/// predicate cursors. Only the first item restarts; every later jump is a
/// gap the executor resolves through its gap policy (exact MC span,
/// independence approximation, or scan-through).
class UnionGapCursor final : public RelevantTimestepCursor {
 public:
  explicit UnionGapCursor(std::vector<PredicateCursor> cursors)
      : union_(PredicateCursor::Union(std::move(cursors))) {}

  Result<std::optional<CursorItem>> Next() override;
  const char* name() const override { return "btc-union"; }

 private:
  PredicateCursor union_;
  bool first_ = true;
};

/// Algorithm 3's producer: the Threshold-Algorithm walk over per-link BT_P
/// cursors. Yields candidate intervals (restart at the candidate start,
/// observe at its final timestep, emit nowhere); consumes Reg's final
/// probability through Observe() to tighten the pruning floor, and collects
/// the best matches itself.
class ThresholdCursor final : public RelevantTimestepCursor {
 public:
  /// Reads the predicate marginal probability of link `link` at time `t`
  /// (line 9 of Algorithm 3); bound to the stream by the caldera layer.
  using LinkProbe = std::function<Result<double>(size_t link, uint64_t t)>;

  static constexpr size_t kUnbounded = SIZE_MAX;

  /// Top-k mode: k bounded, threshold 0. Threshold mode: k = kUnbounded,
  /// threshold in (0, 1).
  ThresholdCursor(std::vector<TopProbCursor> cursors, size_t k,
                  double threshold, uint64_t stream_length, LinkProbe probe)
      : cursors_(std::move(cursors)),
        num_links_(cursors_.size()),
        stream_length_(stream_length),
        probe_(std::move(probe)),
        k_(k),
        threshold_(threshold) {}

  Result<std::optional<CursorItem>> Next() override;
  void Observe(uint64_t time, double prob) override;
  bool collects_signal() const override { return true; }
  void ContributeStats(uint64_t items_yielded,
                       CursorStats* stats) const override;
  std::vector<std::pair<uint64_t, double>> TakeCollected() override;
  const char* name() const override { return "btp-threshold"; }

 private:
  /// The probability an unseen candidate must beat to matter. Zero means
  /// "cannot stop yet" (top-k not yet full).
  double Floor() const;
  /// True once the TA termination condition may fire against Floor().
  bool CanStop(double unseen_bound) const;
  /// Inserts (time, prob) into the sorted best-matches set.
  void Evaluate(uint64_t time, double prob);

  /// Runs the sorted-access walk until a candidate survives pruning;
  /// returns its start, or nullopt on termination.
  Result<std::optional<uint64_t>> NextCandidate();

  std::vector<TopProbCursor> cursors_;
  size_t num_links_;
  uint64_t stream_length_;
  LinkProbe probe_;
  size_t k_;
  double threshold_;

  std::vector<std::pair<uint64_t, double>> matches_;  // Sorted by prob desc.
  std::unordered_set<uint64_t> evaluated_;  // Candidate starts seen.
  uint64_t pruned_ = 0;

  bool in_candidate_ = false;
  uint64_t position_ = 0;
  uint64_t candidate_end_ = 0;
};

}  // namespace caldera

#endif  // CALDERA_INDEX_TIMESTEP_CURSOR_H_
