#include "reg/reg_operator.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace caldera {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

RegOperator::RegOperator(const RegularQuery& query,
                         const StreamSchema& schema)
    : automaton_(query, schema) {}

void RegOperator::Reset() {
  Recycle(&mass_);
  propagated_.clear();
  initialized_ = false;
  last_prob_ = 0.0;
  num_updates_ = 0;
  kernel_seconds_ = 0.0;
}

std::vector<Distribution::Entry> RegOperator::TakeBuffer() {
  if (spare_.empty()) return {};
  std::vector<Distribution::Entry> buffer = std::move(spare_.back());
  spare_.pop_back();
  buffer.clear();
  return buffer;
}

void RegOperator::Recycle(std::vector<std::pair<int, Distribution>>* dists) {
  for (auto& [dfa, dist] : *dists) {
    spare_.push_back(std::move(dist).TakeEntries());
  }
  dists->clear();
}

double RegOperator::ApplyAtoms(
    std::vector<std::pair<int, Distribution>>& propagated) {
  // Route every (state, value) mass through the DFA transition for the
  // value's atom, then merge distributions landing in the same DFA state.
  // Each bucket tracks whether its entries still form one strictly
  // ascending run — true whenever a single source distribution feeds it,
  // the common case — so the merge below can skip the sort entirely.
  buckets_.clear();
  auto bucket_for = [this](int dfa) -> Bucket& {
    for (Bucket& b : buckets_) {
      if (b.dfa == dfa) return b;
    }
    buckets_.push_back(Bucket{dfa, TakeBuffer(), true});
    return buckets_.back();
  };

  for (auto& [dfa, dist] : propagated) {
    for (const Distribution::Entry& e : dist.entries()) {
      if (e.prob == 0.0) continue;
      int next = automaton_.Transition(dfa, automaton_.AtomOf(e.value));
      Bucket& b = bucket_for(next);
      if (!b.entries.empty() && b.entries.back().value >= e.value) {
        b.sorted = false;
      }
      b.entries.push_back(e);
    }
  }
  Recycle(&propagated);
  Recycle(&mass_);
  double accept = 0.0;
  for (Bucket& b : buckets_) {
    Distribution dist = b.sorted ? Distribution::FromSorted(std::move(b.entries))
                                 : Distribution::FromPairs(std::move(b.entries));
    if (automaton_.IsAccepting(b.dfa)) accept += dist.Mass();
    mass_.emplace_back(b.dfa, std::move(dist));
  }
  std::sort(mass_.begin(), mass_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return accept;
}

void RegOperator::CollapseNull() {
  std::vector<std::pair<int, Distribution>> collapsed;
  for (auto& [dfa, dist] : mass_) {
    int next = automaton_.NullTransition(dfa);
    auto it = std::find_if(collapsed.begin(), collapsed.end(),
                           [next](const auto& p) { return p.first == next; });
    if (it == collapsed.end()) {
      collapsed.emplace_back(next, std::move(dist));
    } else {
      // Merge the two distributions.
      std::vector<Distribution::Entry> entries = it->second.entries();
      const auto& more = dist.entries();
      entries.insert(entries.end(), more.begin(), more.end());
      it->second = Distribution::FromPairs(std::move(entries));
    }
  }
  std::sort(collapsed.begin(), collapsed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  mass_ = std::move(collapsed);
}

double RegOperator::Initialize(const Distribution& marginal) {
  CALDERA_CHECK(!initialized_) << "Reg operator already initialized";
  initialized_ = true;
  ++num_updates_;
  propagated_.clear();
  std::vector<Distribution::Entry> entries = TakeBuffer();
  entries.assign(marginal.entries().begin(), marginal.entries().end());
  propagated_.emplace_back(automaton_.start_state(),
                           Distribution::FromSorted(std::move(entries)));
  last_prob_ = ApplyAtoms(propagated_);
  return last_prob_;
}

double RegOperator::Update(const Cpt& transition) {
  CALDERA_CHECK(initialized_) << "Reg operator not initialized";
  ++num_updates_;
  propagated_.clear();
  propagated_.reserve(mass_.size());
  const auto start = Clock::now();
  for (auto& [dfa, dist] : mass_) {
    propagated_.emplace_back(
        dfa, kernels::Propagate(transition, dist, &workspace_, TakeBuffer()));
  }
  kernel_seconds_ += SecondsSince(start);
  last_prob_ = ApplyAtoms(propagated_);
  return last_prob_;
}

double RegOperator::UpdateSpanning(const Cpt& span, uint64_t gap) {
  CALDERA_CHECK(initialized_) << "Reg operator not initialized";
  CALDERA_CHECK(gap >= 1);
  ++num_updates_;
  // Interior timesteps (gap - 1 of them) all read as the null atom; the
  // null transition is idempotent and commutes with value propagation, so
  // a single collapse is exact.
  if (gap >= 2) CollapseNull();
  propagated_.clear();
  propagated_.reserve(mass_.size());
  const auto start = Clock::now();
  for (auto& [dfa, dist] : mass_) {
    propagated_.emplace_back(
        dfa, kernels::Propagate(span, dist, &workspace_, TakeBuffer()));
  }
  kernel_seconds_ += SecondsSince(start);
  last_prob_ = ApplyAtoms(propagated_);
  return last_prob_;
}

double RegOperator::UpdateIndependent(const Distribution& marginal) {
  CALDERA_CHECK(initialized_) << "Reg operator not initialized";
  ++num_updates_;
  CollapseNull();
  propagated_.clear();
  propagated_.reserve(mass_.size());
  for (auto& [dfa, dist] : mass_) {
    double scale = dist.Mass();
    if (scale == 0.0) continue;
    // Scaling preserves the marginal's sorted order, so build directly.
    std::vector<Distribution::Entry> entries = TakeBuffer();
    entries.reserve(marginal.support_size());
    for (const Distribution::Entry& e : marginal.entries()) {
      entries.push_back({e.value, e.prob * scale});
    }
    propagated_.emplace_back(dfa,
                             Distribution::FromSorted(std::move(entries)));
  }
  last_prob_ = ApplyAtoms(propagated_);
  return last_prob_;
}

std::vector<double> RunRegOverStream(const RegularQuery& query,
                                     const MarkovianStream& stream) {
  std::vector<double> signal;
  signal.reserve(stream.length());
  if (stream.empty()) return signal;
  RegOperator reg(query, stream.schema());
  signal.push_back(reg.Initialize(stream.marginal(0)));
  for (uint64_t t = 1; t < stream.length(); ++t) {
    signal.push_back(reg.Update(stream.transition(t)));
  }
  return signal;
}

}  // namespace caldera
