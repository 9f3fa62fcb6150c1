#include "hmm/particle_smoother.h"

#include <algorithm>
#include <map>

namespace caldera {

namespace {

/// Draws an index from unnormalized weights.
size_t SampleWeighted(const std::vector<double>& weights, double total,
                      Rng* rng) {
  double u = rng->NextDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace

Result<MarkovianStream> ParticleSmoothToMarkovianStream(
    const Hmm& hmm, const std::vector<uint32_t>& observations,
    StreamSchema schema, const ParticleSmootherOptions& options) {
  CALDERA_RETURN_IF_ERROR(hmm.Validate());
  const uint64_t T = observations.size();
  if (T == 0) return Status::InvalidArgument("no observations to smooth");
  if (schema.state_count() != hmm.num_states()) {
    return Status::InvalidArgument("schema/HMM state count mismatch");
  }
  for (uint32_t o : observations) {
    if (o >= hmm.num_symbols()) {
      return Status::InvalidArgument("observation symbol out of range");
    }
  }
  if (options.num_particles == 0 || options.num_trajectories == 0) {
    return Status::InvalidArgument("particle counts must be positive");
  }
  Rng rng(options.seed);

  // Transition rows looked up once, and emission terms read from dense
  // columns, as the exact smoother does.
  const uint32_t N = hmm.num_states();
  std::vector<Cpt::RowView> rows(N);
  for (uint32_t x = 0; x < N; ++x) {
    rows[x] = hmm.transition().FindRow(x).value();
  }
  CptColumns emission(hmm.emission(), N, hmm.num_symbols());

  // Forward filter with per-step resampling. particles[t] are equally
  // weighted after resampling.
  const size_t P = options.num_particles;
  std::vector<std::vector<uint32_t>> particles(T);
  {
    // t = 0: draw from the initial distribution, weight by emission.
    const std::vector<double>& e0 = emission.Column(observations[0]);
    std::vector<uint32_t> drawn(P);
    std::vector<double> weights(P);
    double total = 0;
    for (size_t i = 0; i < P; ++i) {
      double u = rng.NextDouble();
      double acc = 0;
      uint32_t state = hmm.initial().entries().back().value;
      for (const Distribution::Entry& e : hmm.initial().entries()) {
        acc += e.prob;
        if (u < acc) {
          state = e.value;
          break;
        }
      }
      drawn[i] = state;
      weights[i] = e0[state];
      total += weights[i];
    }
    if (total <= 0) {
      return Status::InvalidArgument("all particles died at t=0");
    }
    particles[0].resize(P);
    for (size_t i = 0; i < P; ++i) {
      particles[0][i] = drawn[SampleWeighted(weights, total, &rng)];
    }
  }
  for (uint64_t t = 1; t < T; ++t) {
    const std::vector<double>& e = emission.Column(observations[t]);
    std::vector<uint32_t> drawn(P);
    std::vector<double> weights(P);
    double total = 0;
    for (size_t i = 0; i < P; ++i) {
      const Cpt::RowView& row = rows[particles[t - 1][i]];
      double u = rng.NextDouble();
      double acc = 0;
      uint32_t state = row.dsts.back();
      for (size_t j = 0; j < row.size(); ++j) {
        acc += row.probs[j];
        if (u < acc) {
          state = row.dsts[j];
          break;
        }
      }
      drawn[i] = state;
      weights[i] = e[state];
      total += weights[i];
    }
    if (total <= 0) {
      return Status::InvalidArgument("all particles died at t=" +
                                     std::to_string(t));
    }
    particles[t].resize(P);
    for (size_t i = 0; i < P; ++i) {
      particles[t][i] = drawn[SampleWeighted(weights, total, &rng)];
    }
  }

  // Backward simulation: draw M smoothed trajectories. For speed, reduce
  // each filtered particle set to per-state counts first.
  const size_t M = options.num_trajectories;
  // P(next | s) for the trajectory's next state: the transition table read
  // by destination.
  CptColumns by_destination(hmm.transition(), N, N);
  std::vector<std::map<uint32_t, double>> filtered(T);
  for (uint64_t t = 0; t < T; ++t) {
    for (uint32_t s : particles[t]) filtered[t][s] += 1.0;
  }

  std::vector<std::vector<uint32_t>> trajectories(
      M, std::vector<uint32_t>(T, 0));
  for (size_t j = 0; j < M; ++j) {
    // x_{T-1} ~ filtered[T-1].
    {
      std::vector<double> w;
      std::vector<uint32_t> states;
      double total = 0;
      for (const auto& [s, c] : filtered[T - 1]) {
        states.push_back(s);
        w.push_back(c);
        total += c;
      }
      trajectories[j][T - 1] = states[SampleWeighted(w, total, &rng)];
    }
    for (uint64_t t = T - 1; t-- > 0;) {
      const std::vector<double>& to_next =
          by_destination.Column(trajectories[j][t + 1]);
      std::vector<double> w;
      std::vector<uint32_t> states;
      double total = 0;
      for (const auto& [s, c] : filtered[t]) {
        double p = c * to_next[s];
        if (p > 0) {
          states.push_back(s);
          w.push_back(p);
          total += p;
        }
      }
      if (states.empty()) {
        // Degenerate (filter collapse): fall back to the filtered marginal.
        for (const auto& [s, c] : filtered[t]) {
          states.push_back(s);
          w.push_back(c);
          total += c;
        }
      }
      trajectories[j][t] = states[SampleWeighted(w, total, &rng)];
    }
  }

  // Count trajectories into marginals and CPTs; counts are exactly
  // self-consistent (marginal(t) == marginal(t-1) * cpt(t)).
  MarkovianStream stream(std::move(schema));
  std::map<uint32_t, double> state_counts;
  for (uint64_t t = 0; t < T; ++t) {
    state_counts.clear();
    for (size_t j = 0; j < M; ++j) state_counts[trajectories[j][t]] += 1.0;
    std::vector<Distribution::Entry> entries;
    for (const auto& [s, c] : state_counts) {
      entries.push_back({s, c / static_cast<double>(M)});
    }
    Distribution marginal = Distribution::FromPairs(std::move(entries));

    Cpt cpt;
    if (t > 0) {
      std::map<uint32_t, std::map<uint32_t, double>> pair_counts;
      std::map<uint32_t, double> src_counts;
      for (size_t j = 0; j < M; ++j) {
        pair_counts[trajectories[j][t - 1]][trajectories[j][t]] += 1.0;
        src_counts[trajectories[j][t - 1]] += 1.0;
      }
      for (const auto& [src, dsts] : pair_counts) {
        std::vector<Cpt::RowEntry> row;
        for (const auto& [dst, c] : dsts) {
          row.push_back({dst, c / src_counts[src]});
        }
        cpt.SetRow(src, std::move(row));
      }
    }
    stream.Append(std::move(marginal), std::move(cpt));
  }
  return stream;
}

}  // namespace caldera
