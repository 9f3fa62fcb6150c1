#include "hmm/hmm.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace caldera {

Status Hmm::Validate(double tol) const {
  if (num_states_ == 0) return Status::InvalidArgument("HMM has no states");
  if (num_symbols_ == 0) return Status::InvalidArgument("HMM has no symbols");
  if (!initial_.IsNormalized(tol)) {
    return Status::InvalidArgument("HMM initial distribution not normalized");
  }
  for (const Distribution::Entry& e : initial_.entries()) {
    if (e.value >= num_states_) {
      return Status::InvalidArgument("initial mass on unknown state");
    }
  }
  CALDERA_RETURN_IF_ERROR(transition_.ValidateStochastic(tol));
  CALDERA_RETURN_IF_ERROR(emission_.ValidateStochastic(tol));
  for (uint32_t s = 0; s < num_states_; ++s) {
    if (!transition_.FindRow(s)) {
      return Status::InvalidArgument("state " + std::to_string(s) +
                                     " has no transition row");
    }
    if (!emission_.FindRow(s)) {
      return Status::InvalidArgument("state " + std::to_string(s) +
                                     " has no emission row");
    }
  }
  if (transition_.dst_end() > num_states_) {
    return Status::InvalidArgument("transition to unknown state");
  }
  if (emission_.dst_end() > num_symbols_) {
    return Status::InvalidArgument("emission of unknown symbol");
  }
  return Status::Ok();
}

uint32_t Hmm::SampleRow(const Cpt::RowView& row, Rng* rng) const {
  double u = rng->NextDouble();
  double acc = 0;
  for (size_t j = 0; j < row.size(); ++j) {
    acc += row.probs[j];
    if (u < acc) return row.dsts[j];
  }
  return row.dsts.back();
}

Status Hmm::Sample(uint64_t length, Rng* rng, std::vector<uint32_t>* states,
                   std::vector<uint32_t>* observations) const {
  if (length == 0) return Status::InvalidArgument("length must be >= 1");
  states->clear();
  states->reserve(length);
  // Draw the initial state.
  double u = rng->NextDouble();
  double acc = 0;
  uint32_t state = initial_.entries().back().value;
  for (const Distribution::Entry& e : initial_.entries()) {
    acc += e.prob;
    if (u < acc) {
      state = e.value;
      break;
    }
  }
  states->push_back(state);
  for (uint64_t t = 1; t < length; ++t) {
    const std::optional<Cpt::RowView> row = transition_.FindRow(state);
    if (!row || row->dsts.empty()) {
      return Status::FailedPrecondition("state " + std::to_string(state) +
                                        " has no transition row");
    }
    state = SampleRow(*row, rng);
    states->push_back(state);
  }
  return EmitObservations(*states, rng, observations);
}

Status Hmm::EmitObservations(const std::vector<uint32_t>& states, Rng* rng,
                             std::vector<uint32_t>* observations) const {
  observations->clear();
  observations->reserve(states.size());
  for (uint32_t state : states) {
    const std::optional<Cpt::RowView> row = emission_.FindRow(state);
    if (!row || row->dsts.empty()) {
      return Status::FailedPrecondition("state " + std::to_string(state) +
                                        " has no emission row");
    }
    observations->push_back(SampleRow(*row, rng));
  }
  return Status::Ok();
}

CptColumns::CptColumns(const Cpt& table, uint32_t num_rows,
                                 uint32_t num_cols)
    : offsets_(num_cols + 1, 0), dense_(num_rows, 0.0), current_(num_cols) {
  // Counting sort of the entries by column; rows ascend within a column.
  auto for_each_entry = [&](auto&& visit) {
    for (size_t i = 0; i < table.num_rows(); ++i) {
      const Cpt::RowView row = table.row(i);
      if (row.src >= num_rows) continue;
      for (size_t j = 0; j < row.size(); ++j) {
        if (row.dsts[j] < num_cols) visit(row.src, row.dsts[j], row.probs[j]);
      }
    }
  };
  for_each_entry([&](ValueId, ValueId c, double) { ++offsets_[c + 1]; });
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  rows_.resize(offsets_.back());
  probs_.resize(offsets_.back());
  std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  for_each_entry([&](ValueId r, ValueId c, double p) {
    rows_[next[c]] = r;
    probs_[next[c]++] = p;
  });
}

const std::vector<double>& CptColumns::Column(uint32_t c) {
  CALDERA_CHECK(c + size_t{1} < offsets_.size());
  if (c == current_) return dense_;
  if (current_ + size_t{1} < offsets_.size()) {
    for (uint32_t k = offsets_[current_]; k < offsets_[current_ + 1]; ++k) {
      dense_[rows_[k]] = 0.0;
    }
  }
  for (uint32_t k = offsets_[c]; k < offsets_[c + 1]; ++k) {
    dense_[rows_[k]] = probs_[k];
  }
  current_ = c;
  return dense_;
}

}  // namespace caldera
