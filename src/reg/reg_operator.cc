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
  initialized_ = false;
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

RegOperator::Bucket& RegOperator::BucketFor(int dfa) {
  for (Bucket& b : buckets_) {
    if (b.dfa == dfa) return b;
  }
  buckets_.push_back(Bucket{dfa, TakeBuffer(), true});
  return buckets_.back();
}

Distribution RegOperator::TakeMerged(Bucket* bucket) {
  // A bucket fed by one source holds one ascending run, the common case,
  // so the sort is skipped.
  return bucket->sorted ? Distribution::FromSorted(std::move(bucket->entries))
                        : Distribution::FromPairs(std::move(bucket->entries));
}

double RegOperator::FlushBuckets() {
  Recycle(&mass_);
  double accept = 0.0;
  for (Bucket& b : buckets_) {
    Distribution dist = TakeMerged(&b);
    if (automaton_.IsAccepting(b.dfa)) accept += dist.Mass();
    mass_.emplace_back(b.dfa, std::move(dist));
  }
  buckets_.clear();
  std::sort(mass_.begin(), mass_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return accept;
}

double RegOperator::PropagateAndRoute(const Cpt& cpt) {
  const bool timed = propagations_++ % kClockSampleEvery == 0;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point();
  // States run in DFA order and each emits its values in ascending order,
  // so every bucket receives its entries in one fixed order and the merge
  // sums them the same way on every run.
  for (const auto& [dfa, dist] : mass_) {
    auto route = [this, from = dfa](ValueId v, double p) { Route(from, v, p); };
    kernels::Propagate(cpt, dist, &workspace_, route);
  }
  if (timed) kernel_seconds_ += kClockSampleEvery * SecondsSince(start);
  return FlushBuckets();
}

void RegOperator::CollapseNull() {
  for (const auto& [dfa, dist] : mass_) {
    Bucket& b = BucketFor(automaton_.NullTransition(dfa));
    for (const Distribution::Entry& e : dist.entries()) b.Add(e.value, e.prob);
    // Merge as each source lands, so a state fed by three or more sources
    // sums them pairwise in DFA order.
    if (!b.sorted) {
      b.entries = TakeMerged(&b).TakeEntries();
      b.sorted = true;
    }
  }
  FlushBuckets();
}

double RegOperator::Initialize(const Distribution& marginal) {
  CALDERA_CHECK(!initialized_) << "Reg operator already initialized";
  initialized_ = true;
  ++num_updates_;
  for (const Distribution::Entry& e : marginal.entries()) {
    Route(automaton_.start_state(), e.value, e.prob);
  }
  return FlushBuckets();
}

double RegOperator::Update(const Cpt& transition) {
  CALDERA_CHECK(initialized_) << "Reg operator not initialized";
  ++num_updates_;
  return PropagateAndRoute(transition);
}

double RegOperator::UpdateSpanning(const Cpt& span, uint64_t gap) {
  CALDERA_CHECK(initialized_) << "Reg operator not initialized";
  CALDERA_CHECK(gap >= 1);
  ++num_updates_;
  // Interior timesteps (gap - 1 of them) all read as the null atom; the
  // null transition is idempotent and commutes with value propagation, so
  // a single collapse is exact.
  if (gap >= 2) CollapseNull();
  return PropagateAndRoute(span);
}

double RegOperator::UpdateIndependent(const Distribution& marginal) {
  CALDERA_CHECK(initialized_) << "Reg operator not initialized";
  ++num_updates_;
  CollapseNull();
  for (const auto& [dfa, dist] : mass_) {
    const double scale = dist.Mass();
    if (scale == 0.0) continue;
    for (const Distribution::Entry& e : marginal.entries()) {
      Route(dfa, e.value, e.prob * scale);
    }
  }
  return FlushBuckets();
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
