#include "index/timestep_cursor.h"

#include <algorithm>

namespace caldera {

// ---------------------------------------------------------------------------
// IntervalIntersector / IntervalMerger
// ---------------------------------------------------------------------------

Result<std::optional<uint64_t>> IntervalIntersector::Next() {
  const size_t n = cursors_.size();
  if (n == 0) return std::optional<uint64_t>();
  for (;;) {
    // Re-seek every cursor to the current lower bound and compute the
    // implied start of each cursor's current entry.
    uint64_t max_start = next_start_min_;
    for (size_t i = 0; i < n; ++i) {
      CALDERA_RETURN_IF_ERROR(
          cursors_[i].SeekTime(next_start_min_ + offsets_[i]));
      if (!cursors_[i].valid()) return std::optional<uint64_t>();
      // cursors_[i].time() >= next_start_min_ + offsets_[i], so this cannot
      // underflow.
      uint64_t implied_start = cursors_[i].time() - offsets_[i];
      max_start = std::max(max_start, implied_start);
    }
    // Check whether every cursor has an entry exactly at max_start+offset.
    bool aligned = true;
    for (size_t i = 0; i < n; ++i) {
      CALDERA_RETURN_IF_ERROR(cursors_[i].SeekTime(max_start + offsets_[i]));
      if (!cursors_[i].valid()) return std::optional<uint64_t>();
      if (cursors_[i].time() != max_start + offsets_[i]) {
        // This cursor jumped past; restart from its implied start.
        next_start_min_ = cursors_[i].time() - offsets_[i];
        aligned = false;
        break;
      }
    }
    if (aligned) {
      next_start_min_ = max_start + 1;
      return std::optional<uint64_t>(max_start);
    }
  }
}

std::optional<IntervalMerger::Interval> IntervalMerger::Add(uint64_t start) {
  uint64_t last = start + interval_length_ - 1;
  if (!has_pending_) {
    pending_ = {start, last};
    has_pending_ = true;
    return std::nullopt;
  }
  if (start <= pending_.last + 1) {
    pending_.last = std::max(pending_.last, last);
    return std::nullopt;
  }
  Interval done = pending_;
  pending_ = {start, last};
  return done;
}

std::optional<IntervalMerger::Interval> IntervalMerger::Flush() {
  if (!has_pending_) return std::nullopt;
  has_pending_ = false;
  return pending_;
}

// ---------------------------------------------------------------------------
// FullScanCursor
// ---------------------------------------------------------------------------

Result<std::optional<CursorItem>> FullScanCursor::Next() {
  if (next_ >= stream_length_) return std::optional<CursorItem>();
  CursorItem item;
  item.time = next_;
  item.restart = next_ == 0;
  ++next_;
  return std::optional<CursorItem>(item);
}

// ---------------------------------------------------------------------------
// MergeJoinCursor
// ---------------------------------------------------------------------------

MergeJoinCursor::MergeJoinCursor(std::vector<PredicateCursor> cursors,
                                 std::vector<uint64_t> offsets,
                                 uint64_t interval_length,
                                 uint64_t stream_length)
    : intersector_(std::move(cursors), std::move(offsets)),
      merger_(interval_length),
      interval_length_(interval_length),
      stream_length_(stream_length) {}

Result<bool> MergeJoinCursor::PullInterval() {
  for (;;) {
    std::optional<IntervalMerger::Interval> done;
    while (!done.has_value() && !exhausted_) {
      CALDERA_ASSIGN_OR_RETURN(std::optional<uint64_t> start,
                               intersector_.Next());
      // An absent start, or one whose interval cannot fit before the end of
      // the stream (starts are increasing, so neither can any later one),
      // ends the enumeration.
      if (!start.has_value() || *start + interval_length_ > stream_length_) {
        exhausted_ = true;
        done = merger_.Flush();
        break;
      }
      ++candidates_;
      done = merger_.Add(*start);
    }
    if (!done.has_value()) return false;
    // Clamp to the stream (an intersection near the end may imply an
    // interval past the last timestep when some links are unindexed).
    if (done->first >= stream_length_) {
      if (exhausted_) return false;
      continue;
    }
    position_ = done->first;
    interval_end_ = std::min<uint64_t>(done->last, stream_length_ - 1);
    in_interval_ = true;
    at_interval_start_ = true;
    return true;
  }
}

Result<std::optional<CursorItem>> MergeJoinCursor::Next() {
  if (!in_interval_) {
    if (exhausted_) return std::optional<CursorItem>();
    CALDERA_ASSIGN_OR_RETURN(bool more, PullInterval());
    if (!more) return std::optional<CursorItem>();
  }
  CursorItem item;
  item.time = position_;
  item.restart = at_interval_start_;
  at_interval_start_ = false;
  if (position_ == interval_end_) {
    in_interval_ = false;
  } else {
    ++position_;
  }
  return std::optional<CursorItem>(item);
}

void MergeJoinCursor::ContributeStats(uint64_t items_yielded,
                                      CursorStats* stats) const {
  (void)items_yielded;
  // The paper counts index-reported candidates, not processed timesteps.
  stats->relevant_timesteps = candidates_;
}

// ---------------------------------------------------------------------------
// UnionGapCursor
// ---------------------------------------------------------------------------

Result<std::optional<CursorItem>> UnionGapCursor::Next() {
  if (!union_.valid()) return std::optional<CursorItem>();
  CursorItem item;
  item.time = union_.time();
  item.restart = first_;
  first_ = false;
  CALDERA_RETURN_IF_ERROR(union_.Next());
  return std::optional<CursorItem>(item);
}

// ---------------------------------------------------------------------------
// ThresholdCursor
// ---------------------------------------------------------------------------

double ThresholdCursor::Floor() const {
  double kth = (k_ != kUnbounded && matches_.size() >= k_)
                   ? matches_.back().second
                   : 0.0;
  return std::max(threshold_, kth);
}

bool ThresholdCursor::CanStop(double unseen_bound) const {
  double floor = Floor();
  return floor > 0.0 && unseen_bound <= floor;
}

void ThresholdCursor::Evaluate(uint64_t time, double prob) {
  if (prob <= threshold_ || prob <= 0.0) return;
  std::pair<uint64_t, double> entry{time, prob};
  auto pos = std::lower_bound(
      matches_.begin(), matches_.end(), entry,
      [](const std::pair<uint64_t, double>& a,
         const std::pair<uint64_t, double>& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
      });
  matches_.insert(pos, entry);
  if (k_ != kUnbounded && matches_.size() > k_) matches_.pop_back();
}

Result<std::optional<uint64_t>> ThresholdCursor::NextCandidate() {
  const size_t n = num_links_;
  for (;;) {
    // Termination (lines 5-6 of Algorithm 3): no unseen interval can beat
    // the floor once the min over links of the per-link upper bound drops
    // to it. Exhausted cursors bound their link by 0.
    double unseen_bound = 1.0;
    size_t best_cursor = SIZE_MAX;
    double best_head = -1.0;
    for (size_t i = 0; i < n; ++i) {
      double bound = cursors_[i].valid() ? cursors_[i].UpperBound() : 0.0;
      unseen_bound = std::min(unseen_bound, bound);
      double head = cursors_[i].valid() ? cursors_[i].prob() : -1.0;
      if (head > best_head) {
        best_head = head;
        best_cursor = i;
      }
    }
    if (best_cursor == SIZE_MAX) return std::optional<uint64_t>();
    if (CanStop(unseen_bound)) return std::optional<uint64_t>();

    // Sorted access: pop the globally most probable remaining entry.
    uint64_t entry_time = cursors_[best_cursor].time();
    CALDERA_RETURN_IF_ERROR(cursors_[best_cursor].Next());

    // The candidate interval places this link at its offset.
    if (entry_time < best_cursor) continue;
    uint64_t s = entry_time - best_cursor;
    if (s + n > stream_length_) continue;
    if (!evaluated_.insert(s).second) continue;

    // Line 9: prune when any link's marginal is zero at its offset, or
    // (since marginals bound the match) at or below the current floor.
    double floor = Floor();
    bool prune = false;
    for (size_t i = 0; i < n && !prune; ++i) {
      CALDERA_ASSIGN_OR_RETURN(double p, probe_(i, s + i));
      if (p <= 0.0 || p <= floor) prune = true;
    }
    if (prune) {
      ++pruned_;
      continue;
    }
    return std::optional<uint64_t>(s);
  }
}

Result<std::optional<CursorItem>> ThresholdCursor::Next() {
  if (!in_candidate_) {
    CALDERA_ASSIGN_OR_RETURN(std::optional<uint64_t> start, NextCandidate());
    if (!start.has_value()) return std::optional<CursorItem>();
    position_ = *start;
    candidate_end_ = *start + num_links_ - 1;
    in_candidate_ = true;
    CursorItem item;
    item.time = position_;
    item.restart = true;
    item.emit = false;
    item.observe = position_ == candidate_end_;  // Single-link query.
    if (position_ == candidate_end_) in_candidate_ = false;
    return std::optional<CursorItem>(item);
  }
  ++position_;
  CursorItem item;
  item.time = position_;
  item.emit = false;
  item.observe = position_ == candidate_end_;
  if (position_ == candidate_end_) in_candidate_ = false;
  return std::optional<CursorItem>(item);
}

void ThresholdCursor::Observe(uint64_t time, double prob) {
  Evaluate(time, prob);
}

void ThresholdCursor::ContributeStats(uint64_t items_yielded,
                                      CursorStats* stats) const {
  (void)items_yielded;
  stats->relevant_timesteps = evaluated_.size();
  stats->pruned_candidates = pruned_;
}

std::vector<std::pair<uint64_t, double>> ThresholdCursor::TakeCollected() {
  return std::move(matches_);
}

}  // namespace caldera
