#include "markov/stream.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace caldera {

void MarkovianStream::Append(Distribution marginal, Cpt transition) {
  CALDERA_CHECK(!marginals_.empty() || transition.empty())
      << "the first timestep has no incoming transition";
  marginals_.push_back(std::move(marginal));
  transitions_.push_back(std::move(transition));
}

Status MarkovianStream::Validate(double tol) const {
  for (uint64_t t = 0; t < length(); ++t) {
    if (!marginals_[t].IsNormalized(tol)) {
      return Status::Corruption("marginal at t=" + std::to_string(t) +
                                " is not normalized (mass " +
                                std::to_string(marginals_[t].Mass()) + ")");
    }
    if (t == 0) continue;
    const Cpt& cpt = transitions_[t];
    CALDERA_RETURN_IF_ERROR(cpt.ValidateStochastic(tol));
    // Every supported source must have a row.
    for (const Distribution::Entry& e : marginals_[t - 1].entries()) {
      if (e.prob > tol && !cpt.FindRow(e.value)) {
        return Status::Corruption(
            "transition into t=" + std::to_string(t) + " lacks a row for " +
            "supported source " + std::to_string(e.value));
      }
    }
    // Consistency: marginal(t) == marginal(t-1) * transition(t).
    Distribution propagated = cpt.Propagate(marginals_[t - 1]);
    for (const Distribution::Entry& e : marginals_[t].entries()) {
      double p = propagated.ProbabilityOf(e.value);
      // Written so that a NaN on either side fails the check.
      if (!(std::fabs(p - e.prob) <= tol)) {
        return Status::Corruption(
            "marginal inconsistency at t=" + std::to_string(t) + " value " +
            std::to_string(e.value) + ": stored " + std::to_string(e.prob) +
            " vs propagated " + std::to_string(p));
      }
    }
    for (const Distribution::Entry& e : propagated.entries()) {
      if (!(e.prob <= tol) && marginals_[t].ProbabilityOf(e.value) == 0.0) {
        return Status::Corruption(
            "propagated mass outside stored support at t=" +
            std::to_string(t) + " value " + std::to_string(e.value));
      }
    }
  }
  return Status::Ok();
}

void MarkovianStream::RelabelValues(const std::vector<ValueId>& perm) {
  CALDERA_CHECK(perm.size() == schema_.state_count());
  for (Distribution& m : marginals_) {
    std::vector<Distribution::Entry> entries;
    entries.reserve(m.support_size());
    for (const Distribution::Entry& e : m.entries()) {
      entries.push_back({perm[e.value], e.prob});
    }
    m = Distribution::FromPairs(std::move(entries));
  }
  for (Cpt& cpt : transitions_) {
    Cpt relabeled;
    for (size_t i = 0; i < cpt.num_rows(); ++i) {
      const Cpt::RowView row = cpt.row(i);
      std::vector<Cpt::RowEntry> entries;
      entries.reserve(row.size());
      for (size_t j = 0; j < row.size(); ++j) {
        entries.push_back({perm[row.dsts[j]], row.probs[j]});
      }
      relabeled.SetRow(perm[row.src], std::move(entries));
    }
    cpt = std::move(relabeled);
  }
}

Status MarkovianStream::Concatenate(const MarkovianStream& other,
                                    const Cpt& bridge) {
  if (other.empty()) return Status::Ok();
  if (empty()) {
    *this = other;
    return Status::Ok();
  }
  if (!(schema_ == other.schema_)) {
    return Status::InvalidArgument("schema mismatch in Concatenate");
  }
  // The bridge must cover our final support and land on the other stream's
  // initial support.
  for (const Distribution::Entry& e : marginals_.back().entries()) {
    if (!bridge.FindRow(e.value)) {
      return Status::InvalidArgument("bridge CPT missing row for source " +
                                     std::to_string(e.value));
    }
  }
  marginals_.push_back(other.marginals_[0]);
  transitions_.push_back(bridge);
  for (uint64_t t = 1; t < other.length(); ++t) {
    marginals_.push_back(other.marginals_[t]);
    transitions_.push_back(other.transitions_[t]);
  }
  return Status::Ok();
}

uint64_t MarkovianStream::CptBytes() const {
  uint64_t total = 0;
  for (const Cpt& cpt : transitions_) total += cpt.ByteSize();
  return total;
}

}  // namespace caldera
