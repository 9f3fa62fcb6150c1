#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "markov/synthetic.h"
#include "reg/reg_operator.h"
#include "test_util.h"

namespace caldera {
namespace {

StreamSchema SmallSchema() {
  return SingleAttributeSchema("loc", {"H", "O", "C", "X"});
}

// Independent brute-force reference: enumerates every trajectory with
// nonzero probability and sums the mass of those in which a match ends
// exactly at each timestep. Deliberately avoids QueryAutomaton: it
// simulates the linear NFA with an explicit state-set per prefix.
std::vector<double> BruteForceSignal(const RegularQuery& query,
                                     const MarkovianStream& stream) {
  const StreamSchema& schema = stream.schema();
  const size_t n = query.num_links();
  std::vector<double> signal(stream.length(), 0.0);

  // NFA step on a symbol: returns the next state set (always re-seeding 0).
  auto step = [&](const std::vector<bool>& states,
                  ValueId value) -> std::vector<bool> {
    std::vector<bool> next(n + 1, false);
    next[0] = true;
    for (size_t i = 0; i < n; ++i) {
      if (!states[i]) continue;
      const QueryLink& link = query.link(i);
      if (link.primary.Matches(schema, value)) next[i + 1] = true;
      if (i > 0 && link.is_kleene() && link.loop->Matches(schema, value)) {
        next[i] = true;
      }
    }
    return next;
  };

  std::function<void(uint64_t, ValueId, double, std::vector<bool>)> recurse =
      [&](uint64_t t, ValueId value, double prob, std::vector<bool> states) {
        if (prob == 0.0) return;
        states = step(states, value);
        if (states[n]) signal[t] += prob;
        if (t + 1 >= stream.length()) return;
        const Cpt& cpt = stream.transition(t + 1);
        const std::optional<Cpt::RowView> row = cpt.FindRow(value);
        if (!row) return;
        for (size_t j = 0; j < row->size(); ++j) {
          recurse(t + 1, row->dsts[j], prob * row->probs[j], states);
        }
      };

  std::vector<bool> initial(n + 1, false);
  initial[0] = true;
  for (const Distribution::Entry& e : stream.marginal(0).entries()) {
    recurse(0, e.value, e.prob, initial);
  }
  return signal;
}

void ExpectSignalsNear(const std::vector<double>& a,
                       const std::vector<double>& b, double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "t=" << i;
  }
}

RegularQuery FixedHO() {
  return RegularQuery::Sequence(
      "HO", {Predicate::Equality(0, 0, "H"), Predicate::Equality(0, 1, "O")});
}

RegularQuery VariableHC() {
  Predicate c = Predicate::Equality(0, 2, "C");
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H")});
  links.push_back(QueryLink{Predicate::Not(c), c});
  return RegularQuery("HC", links);
}

TEST(RegOperatorTest, HandComputedTwoStepMatch) {
  // Stream: t0 = H w.p. 0.8, O w.p. 0.2; CPT into t1: H->O 0.25 / H->H
  // 0.75; O->O 1. Match prob of (H,O) at t1 = 0.8 * 0.25 = 0.2 — the
  // paper's Section 3.2 example.
  StreamSchema schema = SmallSchema();
  MarkovianStream stream(schema);
  stream.Append(Distribution::FromPairs({{0, 0.8}, {1, 0.2}}), Cpt());
  Cpt cpt;
  cpt.SetRow(0, {{0, 0.75}, {1, 0.25}});
  cpt.SetRow(1, {{1, 1.0}});
  stream.Append(cpt.Propagate(stream.marginal(0)), cpt);
  ASSERT_TRUE(stream.Validate().ok());

  std::vector<double> signal = RunRegOverStream(FixedHO(), stream);
  ASSERT_EQ(signal.size(), 2u);
  EXPECT_DOUBLE_EQ(signal[0], 0.0);
  EXPECT_NEAR(signal[1], 0.2, 1e-12);
}

TEST(RegOperatorTest, WallExampleCorrelationsMatter) {
  // Paper Section 2.1: O1/O2 each 0.5, walls forbid O1->O2. With
  // correlations the (O1 then O2) event has probability 0.
  StreamSchema schema = SingleAttributeSchema("loc", {"O1", "O2"});
  MarkovianStream stream(schema);
  stream.Append(Distribution::FromPairs({{0, 0.5}, {1, 0.5}}), Cpt());
  Cpt cpt;
  cpt.SetRow(0, {{0, 1.0}});
  cpt.SetRow(1, {{0, 0.5}, {1, 0.5}});
  stream.Append(cpt.Propagate(stream.marginal(0)), cpt);
  RegularQuery query = RegularQuery::Sequence(
      "O1O2",
      {Predicate::Equality(0, 0, "O1"), Predicate::Equality(0, 1, "O2")});
  std::vector<double> signal = RunRegOverStream(query, stream);
  EXPECT_DOUBLE_EQ(signal[1], 0.0);
}

TEST(RegOperatorTest, FixedQueryMatchesBruteForce) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    MarkovianStream stream = test::MakeValidStream(8, 4, seed, 0.6);
    std::vector<double> expected = BruteForceSignal(FixedHO(), stream);
    std::vector<double> actual = RunRegOverStream(FixedHO(), stream);
    ExpectSignalsNear(actual, expected);
  }
}

TEST(RegOperatorTest, VariableQueryMatchesBruteForce) {
  for (uint64_t seed : {10u, 11u, 12u, 13u, 14u}) {
    MarkovianStream stream = test::MakeValidStream(8, 4, seed, 0.6);
    std::vector<double> expected = BruteForceSignal(VariableHC(), stream);
    std::vector<double> actual = RunRegOverStream(VariableHC(), stream);
    ExpectSignalsNear(actual, expected);
  }
}

TEST(RegOperatorTest, ThreeLinkQueryMatchesBruteForce) {
  RegularQuery query = RegularQuery::Sequence(
      "HOC", {Predicate::Equality(0, 0, "H"), Predicate::Equality(0, 1, "O"),
              Predicate::Equality(0, 2, "C")});
  for (uint64_t seed : {20u, 21u, 22u}) {
    MarkovianStream stream = test::MakeValidStream(7, 4, seed, 0.7);
    ExpectSignalsNear(RunRegOverStream(query, stream),
                      BruteForceSignal(query, stream));
  }
}

TEST(RegOperatorTest, PositiveLoopMatchesBruteForce) {
  // Q(H, (O*, C)): enter the office region and stay until coffee.
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H")});
  links.push_back(QueryLink{Predicate::Equality(0, 1, "O"),
                            Predicate::Equality(0, 2, "C")});
  RegularQuery query("HOstarC", links);
  for (uint64_t seed : {30u, 31u, 32u}) {
    MarkovianStream stream = test::MakeValidStream(8, 4, seed, 0.7);
    ExpectSignalsNear(RunRegOverStream(query, stream),
                      BruteForceSignal(query, stream));
  }
}

TEST(RegOperatorTest, AmbiguousQueryStillExact) {
  // Loop and primary overlap: Q(H, (X-or-C*, C)) — an ambiguous NFA that
  // the determinized operator must still score exactly.
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 0, "H")});
  links.push_back(QueryLink{Predicate::In(0, {2, 3}, "XC"),
                            Predicate::Equality(0, 2, "C")});
  RegularQuery query("ambiguous", links);
  for (uint64_t seed : {40u, 41u, 42u}) {
    MarkovianStream stream = test::MakeValidStream(8, 4, seed, 0.7);
    ExpectSignalsNear(RunRegOverStream(query, stream),
                      BruteForceSignal(query, stream));
  }
}

TEST(RegOperatorTest, SingleLinkSignalEqualsMarginals) {
  MarkovianStream stream = test::MakeValidStream(20, 4, 50);
  RegularQuery query =
      RegularQuery::Sequence("O", {Predicate::Equality(0, 1, "O")});
  std::vector<double> signal = RunRegOverStream(query, stream);
  for (uint64_t t = 0; t < stream.length(); ++t) {
    EXPECT_NEAR(signal[t], stream.marginal(t).ProbabilityOf(1), 1e-9);
  }
}

TEST(RegOperatorTest, ProbabilitiesAreWithinBounds) {
  MarkovianStream stream = test::MakeValidStream(60, 5, 51);
  RegularQuery query = RegularQuery::Sequence(
      "q", {Predicate::Equality(0, 0, "s0"), Predicate::Equality(0, 1, "s1")});
  std::vector<double> signal = RunRegOverStream(query, stream);
  for (uint64_t t = 1; t < stream.length(); ++t) {
    EXPECT_GE(signal[t], -1e-12);
    EXPECT_LE(signal[t], 1.0 + 1e-9);
    // Upper bound property used by the top-k method: the match probability
    // never exceeds the final link's marginal.
    EXPECT_LE(signal[t], stream.marginal(t).ProbabilityOf(1) + 1e-9);
    // ... nor the first link's marginal one step earlier.
    EXPECT_LE(signal[t], stream.marginal(t - 1).ProbabilityOf(0) + 1e-9);
  }
}

TEST(RegOperatorTest, UpdateSpanningEqualsStepByStepOnNullSpans) {
  // Construct a stream with a hole: values {2,3} in the middle never match
  // the query's predicates, so the operator may skip them via a composed
  // CPT and must produce identical probabilities at the ends.
  StreamSchema schema = SmallSchema();
  RegularQuery query = VariableHC();

  for (uint64_t seed : {60u, 61u, 62u, 63u}) {
    Rng rng(seed);
    MarkovianStream stream(schema);
    // t0: H or X.
    stream.Append(Distribution::FromPairs({{0, 0.6}, {3, 0.4}}), Cpt());
    // t1..t4: only values in {1 (O, null for this query... O matches
    // nothing here), 3 (X)}: both are null-atom states for Q(H, !C*, C).
    Distribution current = stream.marginal(0);
    for (int t = 1; t <= 4; ++t) {
      Cpt cpt;
      for (const Distribution::Entry& e : current.entries()) {
        double split = 0.2 + 0.6 * rng.NextDouble();
        cpt.SetRow(e.value, {{1, split}, {3, 1.0 - split}});
      }
      current = cpt.Propagate(current);
      stream.Append(current, std::move(cpt));
    }
    // t5: C or X.
    {
      Cpt cpt;
      for (const Distribution::Entry& e : current.entries()) {
        double split = 0.3 + 0.4 * rng.NextDouble();
        cpt.SetRow(e.value, {{2, split}, {3, 1.0 - split}});
      }
      current = cpt.Propagate(current);
      stream.Append(current, std::move(cpt));
    }
    ASSERT_TRUE(stream.Validate().ok());

    // Exact step-by-step signal.
    std::vector<double> exact = RunRegOverStream(query, stream);

    // Spanning update: initialize at t0, jump straight to t5 through the
    // composed CPT of transitions 1..5.
    Cpt span = stream.transition(1);
    for (int t = 2; t <= 5; ++t) {
      span = ComposeCpts(span, stream.transition(t));
    }
    RegOperator reg(query, schema);
    reg.Initialize(stream.marginal(0));
    double p = reg.UpdateSpanning(span, 5);
    EXPECT_NEAR(p, exact[5], 1e-12) << "seed=" << seed;
  }
}

TEST(RegOperatorTest, UpdateIndependentEqualsExactWhenAdjacent) {
  // On gap-free processing the semi-independent method never takes the
  // independent branch, so its operator calls equal the exact ones; here we
  // instead check that UpdateIndependent is exact when the stream really IS
  // independent across the gap.
  StreamSchema schema = SmallSchema();
  MarkovianStream stream(schema);
  Distribution first = Distribution::FromPairs({{0, 0.5}, {3, 0.5}});
  stream.Append(first, Cpt());
  // Independent step: every row equals the next marginal.
  Distribution second = Distribution::FromPairs({{1, 0.3}, {2, 0.7}});
  Cpt bridge;
  bridge.SetRow(0, {{1, 0.3}, {2, 0.7}});
  bridge.SetRow(3, {{1, 0.3}, {2, 0.7}});
  stream.Append(second, bridge);
  ASSERT_TRUE(stream.Validate().ok());

  RegularQuery query = VariableHC();
  std::vector<double> exact = RunRegOverStream(query, stream);

  RegOperator reg(query, schema);
  reg.Initialize(stream.marginal(0));
  double p = reg.UpdateIndependent(stream.marginal(1));
  EXPECT_NEAR(p, exact[1], 1e-12);
}

TEST(RegOperatorTest, ResetClearsState) {
  StreamSchema schema = SmallSchema();
  MarkovianStream stream = test::MakeValidStream(10, 4, 70);
  RegOperator reg(FixedHO(), stream.schema());
  reg.Initialize(stream.marginal(0));
  reg.Update(stream.transition(1));
  EXPECT_EQ(reg.num_updates(), 2u);
  reg.Reset();
  EXPECT_FALSE(reg.initialized());
  EXPECT_EQ(reg.num_updates(), 0u);
  reg.Initialize(stream.marginal(0));
  EXPECT_TRUE(reg.initialized());
}

// The Reg operator as it stood before propagation and routing were fused:
// every live state's distribution is propagated in full by Cpt::Propagate,
// then each entry is routed through Transition(d, AtomOf(v)) into
// per-state buckets, merged by FromSorted when one ascending run fed them
// and by FromPairs otherwise; the null collapse merges state pairs as it
// meets them. The fused operator must match it bit for bit.
class StagedReg {
 public:
  StagedReg(const RegularQuery& query, const StreamSchema& schema)
      : automaton_(query, schema) {}

  double Initialize(const Distribution& marginal) {
    mass_.clear();
    std::vector<std::pair<int, Distribution>> staged;
    staged.emplace_back(automaton_.start_state(), marginal);
    return ApplyAtoms(std::move(staged));
  }

  double Update(const Cpt& cpt) { return ApplyAtoms(Propagated(cpt)); }

  double UpdateSpanning(const Cpt& span, uint64_t gap) {
    if (gap >= 2) CollapseNull();
    return ApplyAtoms(Propagated(span));
  }

  double UpdateIndependent(const Distribution& marginal) {
    CollapseNull();
    std::vector<std::pair<int, Distribution>> staged;
    for (const auto& [dfa, dist] : mass_) {
      const double scale = dist.Mass();
      if (scale == 0.0) continue;
      std::vector<Distribution::Entry> entries;
      for (const Distribution::Entry& e : marginal.entries()) {
        entries.push_back({e.value, e.prob * scale});
      }
      staged.emplace_back(dfa, Distribution::FromSorted(std::move(entries)));
    }
    return ApplyAtoms(std::move(staged));
  }

  size_t live_states() const { return mass_.size(); }
  // Buckets fed by three or more sources that needed a sort.
  uint64_t unsorted_multi_source_merges() const { return unsorted_merges_; }

 private:
  std::vector<std::pair<int, Distribution>> Propagated(const Cpt& cpt) {
    std::vector<std::pair<int, Distribution>> staged;
    for (const auto& [dfa, dist] : mass_) {
      staged.emplace_back(dfa, cpt.Propagate(dist));
    }
    return staged;
  }

  double ApplyAtoms(std::vector<std::pair<int, Distribution>> staged) {
    struct Bucket {
      int dfa;
      std::vector<Distribution::Entry> entries;
      bool sorted;
      std::vector<int> sources;
    };
    std::vector<Bucket> buckets;
    for (const auto& [dfa, dist] : staged) {
      for (const Distribution::Entry& e : dist.entries()) {
        if (e.prob == 0.0) continue;
        const int next =
            automaton_.Transition(dfa, automaton_.AtomOf(e.value));
        auto it = std::find_if(buckets.begin(), buckets.end(),
                               [next](const Bucket& b) { return b.dfa == next; });
        if (it == buckets.end()) {
          buckets.push_back(Bucket{next, {}, true, {}});
          it = buckets.end() - 1;
        }
        if (!it->entries.empty() && it->entries.back().value >= e.value) {
          it->sorted = false;
        }
        if (it->sources.empty() || it->sources.back() != dfa) {
          it->sources.push_back(dfa);
        }
        it->entries.push_back(e);
      }
    }
    mass_.clear();
    double accept = 0.0;
    for (Bucket& b : buckets) {
      if (!b.sorted && b.sources.size() >= 3) ++unsorted_merges_;
      Distribution dist = b.sorted
                              ? Distribution::FromSorted(std::move(b.entries))
                              : Distribution::FromPairs(std::move(b.entries));
      if (automaton_.IsAccepting(b.dfa)) accept += dist.Mass();
      mass_.emplace_back(b.dfa, std::move(dist));
    }
    std::sort(mass_.begin(), mass_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return accept;
  }

  void CollapseNull() {
    std::vector<std::pair<int, Distribution>> collapsed;
    for (auto& [dfa, dist] : mass_) {
      const int next = automaton_.NullTransition(dfa);
      auto it = std::find_if(collapsed.begin(), collapsed.end(),
                             [next](const auto& p) { return p.first == next; });
      if (it == collapsed.end()) {
        collapsed.emplace_back(next, std::move(dist));
      } else {
        std::vector<Distribution::Entry> entries = it->second.entries();
        entries.insert(entries.end(), dist.entries().begin(),
                       dist.entries().end());
        it->second = Distribution::FromPairs(std::move(entries));
      }
    }
    std::sort(collapsed.begin(), collapsed.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    mass_ = std::move(collapsed);
  }

  QueryAutomaton automaton_;
  std::vector<std::pair<int, Distribution>> mass_;
  uint64_t unsorted_merges_ = 0;
};

// Overlapping value ranges on the flat "loc" attribute of a synthetic
// stream, so values satisfy several links at once and many DFA states stay
// live.
Predicate Range(uint32_t lo, uint32_t hi, const char* name) {
  std::vector<uint32_t> values;
  for (uint32_t v = lo; v < hi; ++v) values.push_back(v);
  return Predicate::In(0, std::move(values), name);
}

// Q(low, (!mid*, mid)), Q(low, (!mid*, mid), (!high*, high)) and the
// fixed Q(low, mid, high) over a 24-state domain. The null transition of
// the fixed query sends every state to the start state, so a collapse
// merges three or more states into one.
std::vector<RegularQuery> DifferentialQueries() {
  const Predicate low = Range(0, 12, "low");
  const Predicate mid = Range(8, 20, "mid");
  const Predicate high = Range(14, 24, "high");
  std::vector<QueryLink> two;
  two.push_back(QueryLink{std::nullopt, low});
  two.push_back(QueryLink{Predicate::Not(mid), mid});
  std::vector<QueryLink> three = two;
  three.push_back(QueryLink{Predicate::Not(high), high});
  return {RegularQuery("two", two), RegularQuery("three", three),
          RegularQuery::Sequence("fixed", {low, mid, high})};
}

// Drives the fused operator and the staged oracle through the same random
// mix of all four entry points (Initialize after a Reset, Update,
// UpdateSpanning over composed spans of 1-4 steps, UpdateIndependent) and
// requires every emitted probability to match bit for bit.
TEST(RegDifferentialTest, FusedRoutingMatchesStagedOperatorBitForBit) {
  uint64_t max_live = 0;
  uint64_t multi_source_merges = 0;
  for (const RegularQuery& query : DifferentialQueries()) {
    for (uint64_t seed : {101u, 102u, 103u, 104u}) {
      MarkovianStream stream =
          MakeBandedRandomWalkStream(400, 24, seed, /*truncate_eps=*/1e-5);
      RegOperator fused(query, stream.schema());
      StagedReg staged(query, stream.schema());
      Rng rng(seed * 31);
      uint64_t t = 0;
      double p = fused.Initialize(stream.marginal(0));
      ASSERT_EQ(p, staged.Initialize(stream.marginal(0)));
      while (t + 1 < stream.length()) {
        const uint64_t gap =
            std::min<uint64_t>(1 + rng.NextBelow(4), stream.length() - 1 - t);
        const uint64_t next = t + gap;
        double expected = 0.0;
        std::string call;
        switch (rng.NextBelow(8)) {
          case 0: {
            call = "Initialize";
            fused.Reset();
            p = fused.Initialize(stream.marginal(next));
            expected = staged.Initialize(stream.marginal(next));
            break;
          }
          case 1:
          case 2: {
            call = "UpdateSpanning";
            Cpt span = stream.transition(t + 1);
            for (uint64_t u = t + 2; u <= next; ++u) {
              span = ComposeCpts(span, stream.transition(u));
            }
            p = fused.UpdateSpanning(span, gap);
            expected = staged.UpdateSpanning(span, gap);
            break;
          }
          case 3: {
            call = "UpdateIndependent";
            p = fused.UpdateIndependent(stream.marginal(next));
            expected = staged.UpdateIndependent(stream.marginal(next));
            break;
          }
          default: {
            call = "Update";
            for (uint64_t u = t + 1; u <= next; ++u) {
              p = fused.Update(stream.transition(u));
              expected = staged.Update(stream.transition(u));
              if (u < next) {
                ASSERT_EQ(p, expected) << query.name() << " seed=" << seed
                                       << " t=" << u << " Update";
              }
            }
            break;
          }
        }
        ASSERT_EQ(p, expected) << query.name() << " seed=" << seed
                               << " t=" << next << " " << call;
        max_live = std::max<uint64_t>(max_live, staged.live_states());
        t = next;
      }
      multi_source_merges += staged.unsorted_multi_source_merges();
    }
  }
  // The streams must exercise what the bucket order protects.
  EXPECT_GE(max_live, 3u);
  EXPECT_GT(multi_source_merges, 0u);
}

// The step table agrees with a subset simulation of the query's NFA for
// every (DFA state, value), states interned after the table was first
// sized included, and Step agrees with Transition on the value's atom.
TEST(RegDifferentialTest, StepTableMatchesSubsetSimulation) {
  for (const RegularQuery& query : DifferentialQueries()) {
    MarkovianStream stream = MakeBandedRandomWalkStream(2, 24, 7);
    const StreamSchema& schema = stream.schema();
    const size_t n = query.num_links();
    QueryAutomaton automaton(query, schema);
    auto nfa_step = [&](const std::vector<bool>& states, ValueId value) {
      std::vector<bool> next(n + 1, false);
      next[0] = true;
      for (size_t i = 0; i < n; ++i) {
        if (!states[i]) continue;
        const QueryLink& link = query.link(i);
        if (link.primary.Matches(schema, value)) next[i + 1] = true;
        if (i > 0 && link.is_kleene() && link.loop->Matches(schema, value)) {
          next[i] = true;
        }
      }
      return next;
    };
    std::vector<std::vector<bool>> subsets;
    subsets.emplace_back(n + 1, false);
    subsets[0][0] = true;
    ASSERT_EQ(automaton.num_dfa_states(), 1);
    for (size_t d = 0; d < subsets.size(); ++d) {
      for (ValueId v = 0; v < schema.state_count(); ++v) {
        const int next = automaton.Step(static_cast<int>(d), v);
        const std::vector<bool> expected = nfa_step(subsets[d], v);
        if (static_cast<size_t>(next) == subsets.size()) {
          subsets.push_back(expected);
        }
        ASSERT_LT(static_cast<size_t>(next), subsets.size());
        EXPECT_EQ(subsets[next], expected) << "d=" << d << " v=" << v;
        EXPECT_EQ(automaton.IsAccepting(next), expected[n]);
        EXPECT_EQ(next, automaton.Transition(static_cast<int>(d),
                                             automaton.AtomOf(v)));
      }
    }
    EXPECT_EQ(static_cast<size_t>(automaton.num_dfa_states()), subsets.size());
    EXPECT_GE(subsets.size(), 4u) << query.name();
  }
}

}  // namespace
}  // namespace caldera
