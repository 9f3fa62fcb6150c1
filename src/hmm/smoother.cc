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

  // Forward pass (normalized filtering distributions).
  std::vector<std::vector<double>> alpha(T, std::vector<double>(N, 0.0));
  {
    double sum = 0;
    for (const Distribution::Entry& e : hmm.initial().entries()) {
      double v = e.prob * hmm.EmissionProb(e.value, observations[0]);
      alpha[0][e.value] = v;
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
    double sum = 0;
    for (uint32_t y = 0; y < N; ++y) {
      cur[y] *= hmm.EmissionProb(y, observations[t]);
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
    const std::vector<double>& next = beta[t + 1];
    std::vector<double>& cur = beta[t];
    double sum = 0;
    for (uint32_t x = 0; x < N; ++x) {
      const Cpt::RowView& row = rows[x];
      double v = 0;
      for (size_t j = 0; j < row.size(); ++j) {
        const ValueId dst = row.dsts[j];
        v += row.probs[j] * hmm.EmissionProb(dst, observations[t + 1]) *
             next[dst];
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
  // truncation.
  const double eps = options.truncate_eps;
  auto truncated_support = [&](const std::vector<double>& gamma) {
    std::vector<Distribution::Entry> entries;
    double sum = 0;
    for (uint32_t x = 0; x < N; ++x) sum += gamma[x];
    uint32_t argmax = 0;
    for (uint32_t x = 1; x < N; ++x) {
      if (gamma[x] > gamma[argmax]) argmax = x;
    }
    for (uint32_t x = 0; x < N; ++x) {
      double p = gamma[x] / sum;
      if (p >= eps && p > 0) entries.push_back({x, p});
    }
    if (entries.empty()) entries.push_back({argmax, 1.0});
    Distribution d = Distribution::FromPairs(std::move(entries));
    d.Normalize();
    return d;
  };

  MarkovianStream stream(std::move(schema));
  std::vector<double> gamma(N);
  for (uint32_t x = 0; x < N; ++x) gamma[x] = alpha[0][x] * beta[0][x];
  Distribution mu = truncated_support(gamma);
  stream.Append(mu, Cpt());

  for (uint64_t t = 1; t < T; ++t) {
    for (uint32_t y = 0; y < N; ++y) gamma[y] = alpha[t][y] * beta[t][y];
    Distribution support_t = truncated_support(gamma);

    // Smoothed conditional row for source x:
    //   P(X_t = y | X_{t-1} = x, o_1..T) ~ Tr(x,y) E(y,o_t) beta_t(y).
    auto full_row = [&](uint32_t x) {
      std::vector<Cpt::RowEntry> out;
      const Cpt::RowView& row = rows[x];
      for (size_t j = 0; j < row.size(); ++j) {
        const ValueId dst = row.dsts[j];
        double v = row.probs[j] * hmm.EmissionProb(dst, observations[t]) *
                   beta[t][dst];
        if (v > 0) out.push_back({dst, v});
      }
      return out;
    };

    // First pass: rescue sources whose restricted row would be empty by
    // widening the destination support with the row's best destination.
    std::vector<ValueId> extra;
    for (const Distribution::Entry& src : mu.entries()) {
      std::vector<Cpt::RowEntry> row = full_row(src.value);
      if (row.empty()) {
        return Status::Internal("dead-end source in smoothing");
      }
      bool any = false;
      for (const Cpt::RowEntry& e : row) {
        if (support_t.ProbabilityOf(e.dst) > 0) {
          any = true;
          break;
        }
      }
      if (!any) {
        const Cpt::RowEntry* best = &row[0];
        for (const Cpt::RowEntry& e : row) {
          if (e.prob > best->prob) best = &e;
        }
        extra.push_back(best->dst);
      }
    }
    if (!extra.empty()) {
      std::vector<Distribution::Entry> widened = support_t.entries();
      for (ValueId v : extra) {
        if (support_t.ProbabilityOf(v) == 0) widened.push_back({v, 0.0});
      }
      support_t = Distribution::FromPairs(std::move(widened));
    }

    // Second pass: build the truncated, renormalized CPT.
    Cpt cpt;
    for (const Distribution::Entry& src : mu.entries()) {
      std::vector<Cpt::RowEntry> restricted;
      double sum = 0;
      for (const Cpt::RowEntry& e : full_row(src.value)) {
        // Membership in the (possibly widened) support set; stored probs in
        // support_t are irrelevant here.
        bool in_support = false;
        for (const Distribution::Entry& s : support_t.entries()) {
          if (s.value == e.dst) {
            in_support = true;
            break;
          }
        }
        if (in_support) {
          restricted.push_back(e);
          sum += e.prob;
        }
      }
      if (restricted.empty() || sum <= 0) {
        return Status::Internal("empty restricted row after rescue");
      }
      for (Cpt::RowEntry& e : restricted) e.prob /= sum;
      cpt.SetRow(src.value, std::move(restricted));
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
