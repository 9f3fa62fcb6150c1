#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "hmm/hmm.h"
#include "hmm/particle_smoother.h"
#include "hmm/smoother.h"
#include "reg/reg_operator.h"
#include "rfid/layout.h"
#include "rfid/simulator.h"
#include "rfid/workload.h"

namespace caldera {
namespace {

// A 3-state chain HMM: states A-B-C, observations 0=silence, 1=beepA,
// 2=beepC (antennas at the ends).
Hmm ChainHmm() {
  Hmm hmm(3, 3);
  hmm.SetInitial(Distribution::FromPairs({{0, 1.0}}));
  hmm.SetTransitionRow(0, {{0, 0.5}, {1, 0.5}});
  hmm.SetTransitionRow(1, {{0, 0.25}, {1, 0.5}, {2, 0.25}});
  hmm.SetTransitionRow(2, {{1, 0.5}, {2, 0.5}});
  hmm.SetEmissionRow(0, {{0, 0.3}, {1, 0.7}});
  hmm.SetEmissionRow(1, {{0, 1.0}});
  hmm.SetEmissionRow(2, {{0, 0.3}, {2, 0.7}});
  return hmm;
}

StreamSchema ChainSchema() {
  return SingleAttributeSchema("loc", {"A", "B", "C"});
}

// The forward-backward smoother as it was before it read emissions from
// CptColumns: one Hmm::EmissionProb lookup per (timestep, edge), each
// conditional row built twice, and support membership by linear scan. It is
// the bit-for-bit oracle for SmoothToMarkovianStream.
Result<MarkovianStream> LookupReferenceSmooth(
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

// Every marginal and CPT entry of `got` equals `want`'s under ==.
void ExpectBitIdentical(const MarkovianStream& got,
                        const MarkovianStream& want) {
  ASSERT_EQ(got.length(), want.length());
  for (uint64_t t = 0; t < want.length(); ++t) {
    ASSERT_EQ(got.marginal(t), want.marginal(t)) << "marginal t=" << t;
    ASSERT_EQ(got.transition(t), want.transition(t)) << "cpt t=" << t;
  }
}

TEST(HmmTest, ValidateAcceptsWellFormedModel) {
  EXPECT_TRUE(ChainHmm().Validate().ok());
}

TEST(HmmTest, ValidateRejectsBrokenModels) {
  Hmm missing_row(2, 2);
  missing_row.SetInitial(Distribution::FromPairs({{0, 1.0}}));
  missing_row.SetTransitionRow(0, {{0, 1.0}});
  missing_row.SetEmissionRow(0, {{0, 1.0}});
  missing_row.SetEmissionRow(1, {{0, 1.0}});
  EXPECT_FALSE(missing_row.Validate().ok());

  Hmm bad_probs = ChainHmm();
  bad_probs.SetTransitionRow(0, {{0, 0.5}, {1, 0.4}});
  EXPECT_FALSE(bad_probs.Validate().ok());

  Hmm bad_symbol = ChainHmm();
  bad_symbol.SetEmissionRow(0, {{9, 1.0}});
  EXPECT_FALSE(bad_symbol.Validate().ok());
}

TEST(HmmTest, ValidateRejectsNanTransition) {
  Hmm hmm = ChainHmm();
  hmm.SetTransitionRow(0, {{0, std::nan("")}, {1, 1.0}});
  EXPECT_FALSE(hmm.Validate().ok());
  std::vector<uint32_t> obs = {0, 0, 0};
  EXPECT_FALSE(SmoothToMarkovianStream(hmm, obs, ChainSchema(), {}).ok());
}

TEST(HmmTest, SampleProducesConsistentTrajectories) {
  Hmm hmm = ChainHmm();
  Rng rng(5);
  std::vector<uint32_t> states, obs;
  ASSERT_TRUE(hmm.Sample(200, &rng, &states, &obs).ok());
  ASSERT_EQ(states.size(), 200u);
  ASSERT_EQ(obs.size(), 200u);
  EXPECT_EQ(states[0], 0u);  // Point initial.
  for (size_t t = 1; t < states.size(); ++t) {
    EXPECT_GT(hmm.transition().Probability(states[t - 1], states[t]), 0.0);
  }
  for (size_t t = 0; t < states.size(); ++t) {
    EXPECT_GT(hmm.EmissionProb(states[t], obs[t]), 0.0);
  }
}

TEST(CptColumnsTest, MatchesTableLookups) {
  Hmm hmm = ChainHmm();
  CptColumns emission(hmm.emission(), 3, 3);
  CptColumns by_destination(hmm.transition(), 3, 3);
  // Repeats and revisits: a column must be restored exactly after others.
  for (uint32_t c : {0u, 0u, 2u, 1u, 1u, 0u, 2u}) {
    const std::vector<double>& e = emission.Column(c);
    const std::vector<double>& tr = by_destination.Column(c);
    ASSERT_EQ(e.size(), 3u);
    for (uint32_t r = 0; r < 3; ++r) {
      EXPECT_EQ(e[r], hmm.EmissionProb(r, c)) << r << "," << c;
      EXPECT_EQ(tr[r], hmm.transition().Probability(r, c)) << r << "," << c;
    }
  }
  // Entries outside the bounds are dropped.
  CptColumns narrow(hmm.emission(), 2, 2);
  EXPECT_EQ(narrow.Column(0).size(), 2u);
  EXPECT_EQ(narrow.Column(1)[0], 0.7);
  EXPECT_EQ(narrow.Column(0)[1], 1.0);
}

TEST(SmootherTest, MatchesLookupReferenceBitForBit) {
  struct Input {
    std::string name;
    Hmm hmm;
    std::vector<uint32_t> obs;
    StreamSchema schema;
  };
  std::vector<Input> inputs;

  Hmm chain = ChainHmm();
  Rng rng(21);
  std::vector<uint32_t> states, chain_obs;
  ASSERT_TRUE(chain.Sample(80, &rng, &states, &chain_obs).ok());
  inputs.push_back({"chain", chain, chain_obs, ChainSchema()});

  // A corridor snippet: walk from H0 into a room, dwell, walk back.
  BuildingLayout corridor = BuildingLayout::MakeCorridor({.segments = 10});
  Hmm corridor_hmm = corridor.MakeHmm({});
  auto h0 = corridor.LocationByName("H0");
  auto room = corridor.LocationByName("Room5_0");
  ASSERT_TRUE(h0.ok() && room.ok());
  corridor_hmm.SetInitial(Distribution::Point(*h0));
  PersonSimulator sim(&corridor, 10);
  auto truth = sim.SimulateRoutine(*h0, {{*room, 15}, {*h0, 0}});
  ASSERT_TRUE(truth.ok());
  auto snippet_obs = sim.Observe(*truth, corridor_hmm);
  ASSERT_TRUE(snippet_obs.ok());
  inputs.push_back(
      {"corridor", corridor_hmm, *snippet_obs, corridor.MakeSchema()});

  // A 300-step routine trace in the 352-location paper building.
  RoutineSpec spec;
  spec.length = 300;
  Result<RoutineWorkload> routine = MakeRoutineStream(spec);
  ASSERT_TRUE(routine.ok()) << routine.status().ToString();
  ASSERT_EQ(routine->observations.size(), 300u);
  inputs.push_back(
      {"routine", routine->hmm, routine->observations, routine->schema});

  for (const Input& in : inputs) {
    SCOPED_TRACE(in.name);
    for (double eps : {0.0, 1e-3}) {
      SCOPED_TRACE(eps);
      auto got = SmoothToMarkovianStream(in.hmm, in.obs, in.schema,
                                         {.truncate_eps = eps});
      auto want = LookupReferenceSmooth(in.hmm, in.obs, in.schema,
                                        {.truncate_eps = eps});
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ExpectBitIdentical(*got, *want);
    }
  }
}

TEST(SmootherTest, OutputIsValidMarkovianStream) {
  Hmm hmm = ChainHmm();
  Rng rng(6);
  std::vector<uint32_t> states, obs;
  ASSERT_TRUE(hmm.Sample(60, &rng, &states, &obs).ok());
  auto stream = SmoothToMarkovianStream(hmm, obs, ChainSchema(), {});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(stream->length(), 60u);
  EXPECT_TRUE(stream->Validate().ok());
}

TEST(SmootherTest, PerfectObservationsRecoverTruth) {
  // Fully observable variant: each state has its own symbol.
  Hmm hmm(3, 3);
  hmm.SetInitial(Distribution::FromPairs({{0, 1.0}}));
  hmm.SetTransitionRow(0, {{0, 0.5}, {1, 0.5}});
  hmm.SetTransitionRow(1, {{0, 0.25}, {1, 0.5}, {2, 0.25}});
  hmm.SetTransitionRow(2, {{1, 0.5}, {2, 0.5}});
  for (uint32_t s = 0; s < 3; ++s) hmm.SetEmissionRow(s, {{s, 1.0}});

  Rng rng(7);
  std::vector<uint32_t> states, obs;
  ASSERT_TRUE(hmm.Sample(40, &rng, &states, &obs).ok());
  auto stream = SmoothToMarkovianStream(hmm, obs, ChainSchema(),
                                        {.truncate_eps = 0.0});
  ASSERT_TRUE(stream.ok());
  for (uint64_t t = 0; t < stream->length(); ++t) {
    EXPECT_NEAR(stream->marginal(t).ProbabilityOf(states[t]), 1.0, 1e-9);
    EXPECT_EQ(stream->marginal(t).support_size(), 1u);
  }
}

TEST(SmootherTest, SilenceBetweenBeepsFillsGapsProbabilistically) {
  // Observation: beepA, silence x3, beepC. The smoothed stream must put
  // the person near A at the start, near C at the end, and spread mass over
  // the chain in between — with zero support for C at t=0.
  Hmm hmm = ChainHmm();
  std::vector<uint32_t> obs = {1, 0, 0, 0, 2};
  auto stream = SmoothToMarkovianStream(hmm, obs, ChainSchema(),
                                        {.truncate_eps = 0.0});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_TRUE(stream->Validate().ok());
  EXPECT_GT(stream->marginal(0).ProbabilityOf(0), 0.99);
  EXPECT_GT(stream->marginal(4).ProbabilityOf(2), 0.9);
  // Mid-way: support on the middle state.
  EXPECT_GT(stream->marginal(2).ProbabilityOf(1), 0.1);
}

TEST(SmootherTest, TruncationSparsifiesSupports) {
  Hmm hmm = ChainHmm();
  // A long silent gap spreads mass over the whole chain; aggressive
  // truncation must then prune low-probability states.
  std::vector<uint32_t> obs = {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2};
  auto exact = SmoothToMarkovianStream(hmm, obs, ChainSchema(),
                                       {.truncate_eps = 0.0});
  auto truncated = SmoothToMarkovianStream(hmm, obs, ChainSchema(),
                                           {.truncate_eps = 0.25});
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(truncated.ok());
  EXPECT_TRUE(truncated->Validate().ok());
  uint64_t exact_support = 0, truncated_support = 0;
  for (uint64_t t = 0; t < exact->length(); ++t) {
    exact_support += exact->marginal(t).support_size();
    truncated_support += truncated->marginal(t).support_size();
  }
  EXPECT_LT(truncated_support, exact_support);
}

TEST(SmootherTest, RejectsBadInput) {
  Hmm hmm = ChainHmm();
  EXPECT_FALSE(SmoothToMarkovianStream(hmm, {}, ChainSchema(), {}).ok());
  EXPECT_FALSE(
      SmoothToMarkovianStream(hmm, {0, 9}, ChainSchema(), {}).ok());
  StreamSchema wrong = SingleAttributeSchema("loc", {"A", "B"});
  EXPECT_FALSE(SmoothToMarkovianStream(hmm, {0, 0}, wrong, {}).ok());
}

TEST(SmootherTest, ImpossibleObservationSequenceIsRejected) {
  // beepC at t=0 is impossible: the chain starts at A and C's symbol
  // cannot be emitted from A... (A emits silence/beepA only).
  Hmm hmm = ChainHmm();
  auto stream = SmoothToMarkovianStream(hmm, {2}, ChainSchema(), {});
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(SmootherTest, SmoothedEventProbabilityIsSensible) {
  // Event query "A then B" on a smoothed stream where the trajectory is
  // known to go A->B quickly: the signal must spike above 0.2 somewhere.
  Hmm hmm = ChainHmm();
  std::vector<uint32_t> obs = {1, 1, 0, 0, 0, 0, 2, 2};
  auto stream = SmoothToMarkovianStream(hmm, obs, ChainSchema(),
                                        {.truncate_eps = 1e-4});
  ASSERT_TRUE(stream.ok());
  RegularQuery query = RegularQuery::Sequence(
      "AB", {Predicate::Equality(0, 0, "A"), Predicate::Equality(0, 1, "B")});
  std::vector<double> signal = RunRegOverStream(query, *stream);
  double peak = 0;
  for (double p : signal) peak = std::max(peak, p);
  EXPECT_GT(peak, 0.2);
}

TEST(ParticleSmootherTest, OutputIsValidAndConsistent) {
  Hmm hmm = ChainHmm();
  Rng rng(9);
  std::vector<uint32_t> states, obs;
  ASSERT_TRUE(hmm.Sample(50, &rng, &states, &obs).ok());
  auto stream = ParticleSmoothToMarkovianStream(
      hmm, obs, ChainSchema(), {.num_particles = 512, .num_trajectories = 256});
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  EXPECT_EQ(stream->length(), 50u);
  // Counts are exactly self-consistent by construction.
  EXPECT_TRUE(stream->Validate(1e-9).ok());
}

TEST(ParticleSmootherTest, AgreesWithExactSmootherOnMarginals) {
  Hmm hmm = ChainHmm();
  std::vector<uint32_t> obs = {1, 0, 0, 0, 2, 0, 0, 1};
  auto exact = SmoothToMarkovianStream(hmm, obs, ChainSchema(),
                                       {.truncate_eps = 0.0});
  auto particle = ParticleSmoothToMarkovianStream(
      hmm, obs, ChainSchema(),
      {.num_particles = 4096, .num_trajectories = 4096, .seed = 11});
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(particle.ok());
  for (uint64_t t = 0; t < exact->length(); ++t) {
    for (uint32_t s = 0; s < 3; ++s) {
      EXPECT_NEAR(particle->marginal(t).ProbabilityOf(s),
                  exact->marginal(t).ProbabilityOf(s), 0.08)
          << "t=" << t << " s=" << s;
    }
  }
}

// An out-of-range symbol is refused before any column is read, wherever in
// the sequence it sits.
TEST(ParticleSmootherTest, RejectsOutOfRangeSymbol) {
  Hmm hmm = ChainHmm();
  for (const std::vector<uint32_t>& obs :
       {std::vector<uint32_t>{3}, std::vector<uint32_t>{1, 0, 9},
        std::vector<uint32_t>{1, 0xffffffffu, 0}}) {
    auto stream = ParticleSmoothToMarkovianStream(
        hmm, obs, ChainSchema(), {.num_particles = 16, .num_trajectories = 4});
    EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument)
        << stream.status().ToString();
  }
}

TEST(ParticleSmootherTest, RejectsBadOptions) {
  Hmm hmm = ChainHmm();
  EXPECT_FALSE(ParticleSmoothToMarkovianStream(hmm, {0}, ChainSchema(),
                                               {.num_particles = 0})
                   .ok());
}

}  // namespace
}  // namespace caldera
