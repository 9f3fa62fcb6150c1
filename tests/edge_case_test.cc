// Edge-case tests for the cursor-intersection machinery, the interval
// merger, signal helpers, and Reg-operator numerics.

#include <gtest/gtest.h>

#include <cmath>

#include "caldera/access_method.h"
#include "caldera/executor.h"
#include "common/logging.h"
#include "index/btc_index.h"
#include "index/timestep_cursor.h"
#include "reg/reg_operator.h"
#include "test_util.h"

namespace caldera {
namespace {

// ---------------------------------------------------------------------------
// IntervalMerger
// ---------------------------------------------------------------------------

TEST(IntervalMergerTest, SingleCandidate) {
  IntervalMerger merger(3);
  EXPECT_FALSE(merger.Add(10).has_value());
  auto last = merger.Flush();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->first, 10u);
  EXPECT_EQ(last->last, 12u);
  EXPECT_FALSE(merger.Flush().has_value());
}

TEST(IntervalMergerTest, OverlappingCandidatesMerge) {
  IntervalMerger merger(3);
  EXPECT_FALSE(merger.Add(10).has_value());
  EXPECT_FALSE(merger.Add(11).has_value());  // Overlaps [10,12].
  EXPECT_FALSE(merger.Add(13).has_value());  // Abuts [10,13].
  auto out = merger.Flush();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->first, 10u);
  EXPECT_EQ(out->last, 15u);
}

TEST(IntervalMergerTest, DisjointCandidatesSplit) {
  IntervalMerger merger(2);
  EXPECT_FALSE(merger.Add(5).has_value());
  auto first = merger.Add(100);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, 5u);
  EXPECT_EQ(first->last, 6u);
  auto second = merger.Flush();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->first, 100u);
  EXPECT_EQ(second->last, 101u);
}

TEST(IntervalMergerTest, GapOfOneMergesGapOfTwoDoesNot) {
  IntervalMerger merger(1);
  EXPECT_FALSE(merger.Add(5).has_value());
  EXPECT_FALSE(merger.Add(6).has_value());  // Abutting.
  auto out = merger.Add(8);                 // Gap.
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->last, 6u);
}

// ---------------------------------------------------------------------------
// IntervalIntersector against a brute-force reference
// ---------------------------------------------------------------------------

std::vector<uint64_t> BruteForceIntersections(
    const MarkovianStream& stream, const std::vector<uint32_t>& values,
    const std::vector<uint64_t>& offsets) {
  std::vector<uint64_t> out;
  for (uint64_t s = 0; s + offsets.back() < stream.length(); ++s) {
    bool all = true;
    for (size_t i = 0; i < values.size(); ++i) {
      if (stream.marginal(s + offsets[i]).ProbabilityOf(values[i]) <= 0) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(s);
  }
  return out;
}

TEST(IntervalIntersectorTest, MatchesBruteForceEnumeration) {
  test::ScratchDir scratch("intersector_test");
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    MarkovianStream stream = test::MakeBandedStream(200, 12, seed);
    auto tree = test::BuildTreeFromWritten(
        stream, 0, scratch.Path("btc" + std::to_string(seed)));
    ASSERT_TRUE(tree.ok());

    std::vector<uint32_t> values = {3, 4, 6};
    std::vector<uint64_t> offsets = {0, 1, 2};
    std::vector<PredicateCursor> cursors;
    for (uint32_t v : values) {
      auto cursor = PredicateCursor::Create(tree->get(), {v});
      ASSERT_TRUE(cursor.ok());
      cursors.push_back(std::move(*cursor));
    }
    IntervalIntersector intersector(std::move(cursors), offsets);
    std::vector<uint64_t> produced;
    for (;;) {
      auto next = intersector.Next();
      ASSERT_TRUE(next.ok());
      if (!next->has_value()) break;
      produced.push_back(**next);
    }
    EXPECT_EQ(produced, BruteForceIntersections(stream, values, offsets))
        << "seed=" << seed;
  }
}

TEST(IntervalIntersectorTest, NonContiguousOffsets) {
  // Cursors at offsets {0, 3}: models a relaxed intersection where middle
  // links are unindexed.
  test::ScratchDir scratch("intersector_offsets");
  MarkovianStream stream = test::MakeBandedStream(200, 12, 5);
  auto tree = test::BuildTreeFromWritten(stream, 0, scratch.Path("btc"));
  ASSERT_TRUE(tree.ok());
  std::vector<uint32_t> values = {2, 5};
  std::vector<uint64_t> offsets = {0, 3};
  std::vector<PredicateCursor> cursors;
  for (uint32_t v : values) {
    auto cursor = PredicateCursor::Create(tree->get(), {v});
    ASSERT_TRUE(cursor.ok());
    cursors.push_back(std::move(*cursor));
  }
  IntervalIntersector intersector(std::move(cursors), offsets);
  std::vector<uint64_t> produced;
  for (;;) {
    auto next = intersector.Next();
    ASSERT_TRUE(next.ok());
    if (!next->has_value()) break;
    produced.push_back(**next);
  }
  EXPECT_EQ(produced, BruteForceIntersections(stream, values, offsets));
}

TEST(IntervalIntersectorTest, EmptyCursorSetYieldsNothing) {
  IntervalIntersector intersector({}, {});
  auto next = intersector.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
}

// ---------------------------------------------------------------------------
// Signal helpers
// ---------------------------------------------------------------------------

TEST(SignalHelpersTest, FilterSignal) {
  QuerySignal signal = {{0, 0.5}, {1, 0.1}, {2, 0.0}, {3, 0.9}};
  QuerySignal filtered = FilterSignal(signal, 0.1);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].time, 0u);
  EXPECT_EQ(filtered[1].time, 3u);
}

TEST(SignalHelpersTest, TopKOfSignalSortsAndTruncates) {
  QuerySignal signal = {{0, 0.5}, {1, 0.1}, {2, 0.9}, {3, 0.5}};
  QuerySignal top = TopKOfSignal(signal, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].time, 2u);
  // Ties broken by time.
  EXPECT_EQ(top[1].time, 0u);
  EXPECT_EQ(top[2].time, 3u);
  EXPECT_TRUE(TopKOfSignal({}, 5).empty());
}

// ---------------------------------------------------------------------------
// Reg operator numerics
// ---------------------------------------------------------------------------

TEST(RegNumericsTest, LongStreamsStayNormalized) {
  // 5000 steps of a dense query: accepting mass every step must remain a
  // probability despite accumulated floating-point work.
  StreamSchema schema = SingleAttributeSchema("loc", {"a", "b", "c"});
  MarkovianStream stream(schema);
  Rng rng(1);
  Distribution current =
      Distribution::FromPairs({{0, 0.4}, {1, 0.3}, {2, 0.3}});
  stream.Append(current, Cpt());
  for (int t = 1; t < 5000; ++t) {
    Cpt cpt;
    for (const Distribution::Entry& e : current.entries()) {
      double a = rng.NextDouble() + 0.1;
      double b = rng.NextDouble() + 0.1;
      double c = rng.NextDouble() + 0.1;
      double sum = a + b + c;
      cpt.SetRow(e.value, {{0, a / sum}, {1, b / sum}, {2, c / sum}});
    }
    current = cpt.Propagate(current);
    stream.Append(current, std::move(cpt));
  }
  RegularQuery query = RegularQuery::Sequence(
      "ab", {Predicate::Equality(0, 0, "a"), Predicate::Equality(0, 1, "b")});
  RegOperator reg(query, schema);
  reg.Initialize(stream.marginal(0));
  for (uint64_t t = 1; t < stream.length(); ++t) {
    double p = reg.Update(stream.transition(t));
    ASSERT_GE(p, -1e-12) << "t=" << t;
    ASSERT_LE(p, 1.0 + 1e-9) << "t=" << t;
  }
  // Total marginal mass carried by the operator must still be ~1: the
  // restart state always holds the full distribution.
  EXPECT_NEAR(stream.marginal(stream.length() - 1).Mass(), 1.0, 1e-6);
}

TEST(RegNumericsTest, ZeroProbabilityPredicatesGiveZeroSignal) {
  StreamSchema schema = SingleAttributeSchema("loc", {"a", "b", "c"});
  MarkovianStream stream = test::MakeBandedStream(50, 3, 2);
  // Query on values that never co-occur in sequence because value ids 0 and
  // 2 are two band-steps apart: (0 then 2) requires a jump of 2.
  RegularQuery query = RegularQuery::Sequence(
      "jump",
      {Predicate::Equality(0, 0, "a"), Predicate::Equality(0, 2, "c")});
  std::vector<double> signal = RunRegOverStream(query, stream);
  for (uint64_t t = 0; t < stream.length(); ++t) {
    // A banded walk can only move +-1 per step, so P(0 then 2) == 0.
    EXPECT_NEAR(signal[t], 0.0, 1e-12);
  }
}

TEST(RegNumericsTest, SubStochasticSpansStayBounded) {
  // UpdateSpanning with a sub-stochastic (conditioned) CPT must yield
  // probabilities in [0, 1] and never inflate mass.
  StreamSchema schema = SingleAttributeSchema("loc", {"a", "b", "c", "d"});
  RegularQuery query = RegularQuery::Sequence(
      "ab", {Predicate::Equality(0, 0, "a"), Predicate::Equality(0, 1, "b")});
  RegOperator reg(query, schema);
  reg.Initialize(Distribution::FromPairs({{0, 0.5}, {3, 0.5}}));
  Cpt sub;  // Rows sum to < 1.
  sub.SetRow(0, {{0, 0.4}, {1, 0.3}});
  sub.SetRow(3, {{3, 0.5}});
  double p = reg.UpdateSpanning(sub, 3);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(RegNumericsTest, EmptyMarginalInitializeIsHarmless) {
  StreamSchema schema = SingleAttributeSchema("loc", {"a", "b"});
  RegularQuery query =
      RegularQuery::Sequence("a", {Predicate::Equality(0, 0, "a")});
  RegOperator reg(query, schema);
  double p = reg.Initialize(Distribution());
  EXPECT_DOUBLE_EQ(p, 0.0);
  EXPECT_TRUE(reg.initialized());
}

// ---------------------------------------------------------------------------
// B+Tree method: boundary intervals
// ---------------------------------------------------------------------------

TEST(BoundaryTest, MatchesAtStreamEdgesAreFound) {
  // Construct a stream whose only matches sit at t=0..1 and at the last
  // two timesteps.
  StreamSchema schema = SingleAttributeSchema("loc", {"a", "b", "x"});
  MarkovianStream stream(schema);
  stream.Append(Distribution::Point(0), Cpt());  // t0: a.
  Cpt to_b;
  to_b.SetRow(0, {{1, 1.0}});
  stream.Append(Distribution::Point(1), to_b);  // t1: b (match at t1).
  Cpt to_x;
  to_x.SetRow(1, {{2, 1.0}});
  stream.Append(Distribution::Point(2), to_x);  // t2..: x.
  Cpt stay_x;
  stay_x.SetRow(2, {{2, 1.0}});
  for (int t = 3; t < 20; ++t) stream.Append(Distribution::Point(2), stay_x);
  Cpt to_a;
  to_a.SetRow(2, {{0, 1.0}});
  stream.Append(Distribution::Point(0), to_a);  // t20: a.
  to_b = Cpt();
  to_b.SetRow(0, {{1, 1.0}});
  stream.Append(Distribution::Point(1), to_b);  // t21: b (match at end).
  ASSERT_TRUE(stream.Validate().ok());

  test::ScratchDir scratch("boundary_test");
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  RegularQuery query = RegularQuery::Sequence(
      "ab", {Predicate::Equality(0, 0, "a"), Predicate::Equality(0, 1, "b")});
  auto result = RunPipeline(archived->get(), query, AccessMethodKind::kBTree);
  ASSERT_TRUE(result.ok());
  double p_first = 0, p_last = 0;
  for (const TimestepProbability& e : result->signal) {
    if (e.time == 1) p_first = e.prob;
    if (e.time == stream.length() - 1) p_last = e.prob;
  }
  EXPECT_DOUBLE_EQ(p_first, 1.0);
  EXPECT_DOUBLE_EQ(p_last, 1.0);
}

TEST(BoundaryTest, QueryLongerThanStream) {
  MarkovianStream stream = test::MakeBandedStream(3, 6, 3);
  test::ScratchDir scratch("boundary_short");
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  std::vector<Predicate> predicates;
  for (int i = 0; i < 5; ++i) {
    predicates.push_back(Predicate::Equality(0, i, "s" + std::to_string(i)));
  }
  RegularQuery query = RegularQuery::Sequence("long", predicates);
  auto result = RunPipeline(archived->get(), query, AccessMethodKind::kBTree);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->signal.empty());
}

}  // namespace
}  // namespace caldera
