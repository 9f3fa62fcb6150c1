#include "hmm/viterbi.h"

#include <cmath>
#include <limits>

namespace caldera {

Result<ViterbiResult> ViterbiDecode(
    const Hmm& hmm, const std::vector<uint32_t>& observations) {
  CALDERA_RETURN_IF_ERROR(hmm.Validate());
  const uint64_t T = observations.size();
  const uint32_t N = hmm.num_states();
  if (T == 0) return Status::InvalidArgument("no observations to decode");
  for (uint32_t o : observations) {
    if (o >= hmm.num_symbols()) {
      return Status::InvalidArgument("observation symbol out of range");
    }
  }

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> score(T, std::vector<double>(N, kNegInf));
  std::vector<std::vector<int64_t>> back(T, std::vector<int64_t>(N, -1));

  // Transition rows looked up once, and emission terms read from dense
  // columns, as the smoother does.
  std::vector<Cpt::RowView> rows(N);
  for (uint32_t x = 0; x < N; ++x) {
    rows[x] = hmm.transition().FindRow(x).value();
  }
  CptColumns emission(hmm.emission(), N, hmm.num_symbols());

  const std::vector<double>& e0 = emission.Column(observations[0]);
  for (const Distribution::Entry& e : hmm.initial().entries()) {
    double emit = e0[e.value];
    if (e.prob > 0 && emit > 0) {
      score[0][e.value] = std::log(e.prob) + std::log(emit);
    }
  }

  for (uint64_t t = 1; t < T; ++t) {
    const std::vector<double>& e = emission.Column(observations[t]);
    for (uint32_t x = 0; x < N; ++x) {
      if (score[t - 1][x] == kNegInf) continue;
      const Cpt::RowView& row = rows[x];
      for (size_t j = 0; j < row.size(); ++j) {
        const ValueId dst = row.dsts[j];
        double emit = e[dst];
        if (row.probs[j] <= 0 || emit <= 0) continue;
        double candidate =
            score[t - 1][x] + std::log(row.probs[j]) + std::log(emit);
        if (candidate > score[t][dst]) {
          score[t][dst] = candidate;
          back[t][dst] = x;
        }
      }
    }
  }

  uint32_t best = 0;
  for (uint32_t x = 1; x < N; ++x) {
    if (score[T - 1][x] > score[T - 1][best]) best = x;
  }
  if (score[T - 1][best] == kNegInf) {
    return Status::InvalidArgument(
        "observation sequence impossible under the HMM");
  }

  ViterbiResult result;
  result.log_probability = score[T - 1][best];
  result.states.resize(T);
  result.states[T - 1] = best;
  for (uint64_t t = T - 1; t-- > 0;) {
    result.states[t] =
        static_cast<uint32_t>(back[t + 1][result.states[t + 1]]);
  }
  return result;
}

}  // namespace caldera
