#include "hmm/smoother.h"

#include <algorithm>
#include <cmath>

namespace caldera {

Result<MarkovianStream> SmoothToMarkovianStream(
    const Hmm& hmm, const std::vector<uint32_t>& observations,
    StreamSchema schema, const SmootherOptions& options) {
  CALDERA_RETURN_IF_ERROR(hmm.Validate());
  const uint64_t T = observations.size();
  const uint32_t N = hmm.num_states();
  if (T == 0) return Status::InvalidArgument("no observations to smooth");
  if (schema.state_count() != N) {
    return Status::InvalidArgument("schema state count " +
                                   std::to_string(schema.state_count()) +
                                   " != HMM state count " +
                                   std::to_string(N));
  }
  for (uint32_t o : observations) {
    if (o >= hmm.num_symbols()) {
      return Status::InvalidArgument("observation symbol out of range");
    }
  }

  // Transition rows by source state, looked up once: the passes below visit
  // every (timestep, state) pair, and a binary search per visit took about
  // a third of stream generation.
  std::vector<Cpt::RowView> rows(N);
  for (uint32_t x = 0; x < N; ++x) {
    rows[x] = hmm.transition().FindRow(x).value();
  }

  // Emission terms as dense columns: one array read per edge, scattered
  // once per timestep whose symbol differs from the previous one.
  CptColumns emission(hmm.emission(), N, hmm.num_symbols());

  // Forward pass (normalized filtering distributions). alpha and beta keep
  // one heap row per timestep: one flat T*N array per call measured 7 MB
  // more peak RSS on fleet-scan, because its fresh pages are mapped while
  // the heap's free chunks, which rows of this size reuse, stay resident.
  std::vector<std::vector<double>> alpha(T, std::vector<double>(N, 0.0));
  {
    const std::vector<double>& e = emission.Column(observations[0]);
    double sum = 0;
    for (const Distribution::Entry& entry : hmm.initial().entries()) {
      double v = entry.prob * e[entry.value];
      alpha[0][entry.value] = v;
      sum += v;
    }
    if (sum <= 0) {
      return Status::InvalidArgument(
          "observation sequence impossible under the HMM (t=0)");
    }
    for (double& v : alpha[0]) v /= sum;
  }
  for (uint64_t t = 1; t < T; ++t) {
    std::vector<double>& cur = alpha[t];
    const std::vector<double>& prev = alpha[t - 1];
    for (uint32_t x = 0; x < N; ++x) {
      if (prev[x] == 0.0) continue;
      const Cpt::RowView& row = rows[x];
      for (size_t j = 0; j < row.size(); ++j) {
        cur[row.dsts[j]] += prev[x] * row.probs[j];
      }
    }
    const std::vector<double>& e = emission.Column(observations[t]);
    double sum = 0;
    for (uint32_t y = 0; y < N; ++y) {
      cur[y] *= e[y];
      sum += cur[y];
    }
    if (sum <= 0) {
      return Status::InvalidArgument(
          "observation sequence impossible under the HMM (t=" +
          std::to_string(t) + ")");
    }
    for (double& v : cur) v /= sum;
  }

  // Backward pass (rescaled each step; only ratios matter).
  std::vector<std::vector<double>> beta(T, std::vector<double>(N, 0.0));
  std::fill(beta[T - 1].begin(), beta[T - 1].end(), 1.0);
  for (uint64_t t = T - 1; t-- > 0;) {
    std::vector<double>& cur = beta[t];
    const std::vector<double>& next = beta[t + 1];
    const std::vector<double>& e = emission.Column(observations[t + 1]);
    double sum = 0;
    for (uint32_t x = 0; x < N; ++x) {
      const Cpt::RowView& row = rows[x];
      double v = 0;
      for (size_t j = 0; j < row.size(); ++j) {
        const ValueId dst = row.dsts[j];
        v += row.probs[j] * e[dst] * next[dst];
      }
      cur[x] = v;
      sum += v;
    }
    if (sum <= 0) {
      return Status::InvalidArgument(
          "observation sequence impossible under the HMM (backward)");
    }
    for (double& v : cur) v /= sum;
  }

  // Smoothed marginals gamma_t ~ alpha_t .* beta_t, with support
  // truncation: the states whose normalized mass reaches eps, or the argmax
  // alone when none does, into `kept`. A state with gamma < eps * sum / 2
  // cannot reach eps after the division, so it skips the division.
  const double eps = options.truncate_eps;
  std::vector<double> gamma(N);
  std::vector<Distribution::Entry> kept;
  auto truncate_support = [&](uint64_t t) {
    for (uint32_t x = 0; x < N; ++x) {
      gamma[x] = alpha[t][x] * beta[t][x];
    }
    double sum = 0;
    for (uint32_t x = 0; x < N; ++x) sum += gamma[x];
    uint32_t argmax = 0;
    for (uint32_t x = 1; x < N; ++x) {
      if (gamma[x] > gamma[argmax]) argmax = x;
    }
    const double floor = 0.5 * eps * sum;
    kept.clear();
    for (uint32_t x = 0; x < N; ++x) {
      if (gamma[x] < floor) continue;
      double p = gamma[x] / sum;
      if (p >= eps && p > 0) kept.push_back({x, p});
    }
    if (kept.empty()) kept.push_back({argmax, 1.0});
  };

  MarkovianStream stream(std::move(schema));
  truncate_support(0);
  Distribution mu = Distribution::FromPairs(kept);
  mu.Normalize();
  stream.Append(mu, Cpt());

  // Per-step scratch, reused: the support marker (support[y] == t marks y
  // in step t's support), each source's full conditional row (source i of
  // mu spans full[starts[i], starts[i + 1])), and the rescued destinations.
  std::vector<uint64_t> support(N, 0);
  std::vector<Cpt::RowEntry> full;
  std::vector<size_t> starts;
  std::vector<ValueId> extra;
  for (uint64_t t = 1; t < T; ++t) {
    truncate_support(t);
    for (const Distribution::Entry& entry : kept) support[entry.value] = t;

    // Smoothed conditional row for source x:
    //   P(X_t = y | X_{t-1} = x, o_1..T) ~ Tr(x,y) E(y,o_t) beta_t(y).
    // Sources whose row misses the support are rescued by widening the
    // destination support with the row's best destination, once every
    // source has been checked against the unwidened support.
    const std::vector<double>& e = emission.Column(observations[t]);
    const std::vector<double>& beta_t = beta[t];
    full.clear();
    starts.clear();
    extra.clear();
    for (const Distribution::Entry& src : mu.entries()) {
      const size_t begin = full.size();
      starts.push_back(begin);
      const Cpt::RowView& row = rows[src.value];
      for (size_t j = 0; j < row.size(); ++j) {
        const ValueId dst = row.dsts[j];
        double v = row.probs[j] * e[dst] * beta_t[dst];
        if (v > 0) full.push_back({dst, v});
      }
      if (full.size() == begin) {
        return Status::Internal("dead-end source in smoothing");
      }
      size_t best = begin;
      bool any = false;
      for (size_t k = begin; k < full.size(); ++k) {
        if (support[full[k].dst] == t) {
          any = true;
          break;
        }
        if (full[k].prob > full[best].prob) best = k;
      }
      if (!any) extra.push_back(full[best].dst);
    }
    starts.push_back(full.size());
    for (ValueId v : extra) support[v] = t;

    // Build the truncated, renormalized CPT.
    Cpt cpt;
    for (size_t i = 0; i < mu.support_size(); ++i) {
      // Full-row entries are positive, so an empty restriction sums to 0.
      double sum = 0;
      for (size_t k = starts[i]; k < starts[i + 1]; ++k) {
        if (support[full[k].dst] == t) sum += full[k].prob;
      }
      if (sum <= 0) {
        return Status::Internal("empty restricted row after rescue");
      }
      for (size_t k = starts[i]; k < starts[i + 1]; ++k) {
        if (support[full[k].dst] == t) {
          cpt.PushEntry(full[k].dst, full[k].prob / sum);
        }
      }
      cpt.EndRow(mu.entries()[i].value);
    }

    // Recompute the marginal by propagation so the stream is exactly
    // self-consistent.
    mu = cpt.Propagate(mu);
    mu.Normalize();
    stream.Append(mu, std::move(cpt));
  }
  return stream;
}

}  // namespace caldera
