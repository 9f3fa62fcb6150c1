#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/encoding.h"
#include "common/rng.h"
#include "index/btc_index.h"
#include "index/btp_index.h"
#include "test_util.h"

namespace caldera {
namespace {

TEST(BtcKeyTest, RoundTripAndOrder) {
  std::string a = EncodeBtcKey(1, 100);
  std::string b = EncodeBtcKey(1, 101);
  std::string c = EncodeBtcKey(2, 0);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  uint32_t value;
  uint64_t time;
  DecodeBtcKey(b, &value, &time);
  EXPECT_EQ(value, 1u);
  EXPECT_EQ(time, 101u);
}

TEST(BtpKeyTest, OrdersByValueThenProbDescThenTime) {
  std::string a = EncodeBtpKey(1, 0.9, 50);
  std::string b = EncodeBtpKey(1, 0.5, 10);
  std::string c = EncodeBtpKey(1, 0.5, 11);
  std::string d = EncodeBtpKey(2, 1.0, 0);
  EXPECT_LT(a, b);  // Higher probability first.
  EXPECT_LT(b, c);  // Ties broken by time.
  EXPECT_LT(c, d);  // Value dominates.
  uint32_t value;
  double prob;
  uint64_t time;
  DecodeBtpKey(a, &value, &prob, &time);
  EXPECT_EQ(value, 1u);
  EXPECT_NEAR(prob, 0.9, 1e-15);
  EXPECT_EQ(time, 50u);
}

class IndexTest : public ::testing::Test {
 protected:
  IndexTest() : scratch_("index_test") {}

  test::ScratchDir scratch_;
};

TEST_F(IndexTest, BtcIndexContainsExactlyTheSupport) {
  MarkovianStream stream = test::MakeValidStream(80, 6, 7);
  auto tree =
      test::BuildTreeFromWritten(stream, 0, scratch_.Path("btc.bt"));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE((*tree)->CheckInvariants().ok());

  // Every (value, t) with nonzero marginal must be present with the right
  // probability; nothing else may be present.
  uint64_t expected_entries = 0;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    expected_entries += stream.marginal(t).support_size();
    for (const Distribution::Entry& e : stream.marginal(t).entries()) {
      auto got = (*tree)->Get(EncodeBtcKey(e.value, t));
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(got->has_value()) << "value=" << e.value << " t=" << t;
      EXPECT_DOUBLE_EQ(GetDouble(got->value().data()), e.prob);
    }
  }
  EXPECT_EQ((*tree)->num_entries(), expected_entries);
}

TEST_F(IndexTest, PredicateCursorVisitsRelevantTimesInOrder) {
  MarkovianStream stream = test::MakeValidStream(100, 6, 8);
  auto tree =
      test::BuildTreeFromWritten(stream, 0, scratch_.Path("btc.bt"));
  ASSERT_TRUE(tree.ok());

  std::vector<uint32_t> values = {1, 4};
  auto cursor = PredicateCursor::Create(tree->get(), values);
  ASSERT_TRUE(cursor.ok());

  std::vector<uint64_t> expected;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    double p = stream.marginal(t).ProbabilityOf(1) +
               stream.marginal(t).ProbabilityOf(4);
    if (p > 0) expected.push_back(t);
  }
  std::vector<uint64_t> visited;
  while (cursor->valid()) {
    visited.push_back(cursor->time());
    double p = stream.marginal(cursor->time()).ProbabilityOf(1) +
               stream.marginal(cursor->time()).ProbabilityOf(4);
    EXPECT_NEAR(cursor->prob(), p, 1e-12);
    ASSERT_TRUE(cursor->Next().ok());
  }
  EXPECT_EQ(visited, expected);
}

TEST_F(IndexTest, PredicateCursorSeekTime) {
  MarkovianStream stream = test::MakeValidStream(100, 6, 9);
  auto tree =
      test::BuildTreeFromWritten(stream, 0, scratch_.Path("btc.bt"));
  ASSERT_TRUE(tree.ok());
  auto cursor = PredicateCursor::Create(tree->get(), {2});
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->SeekTime(50).ok());
  if (cursor->valid()) {
    EXPECT_GE(cursor->time(), 50u);
    // Seeking backwards is a no-op.
    uint64_t t = cursor->time();
    ASSERT_TRUE(cursor->SeekTime(10).ok());
    EXPECT_EQ(cursor->time(), t);
  }
}

// A cursor over 64 values of a tree opened with a 4-page pool pins no page
// between calls, so SeekTime jumps drive its 64 heads through the pool and
// return exactly the (time, prob) sequence of a per-value reference.
TEST_F(IndexTest, PredicateCursorOverManyValuesInASmallPool) {
  constexpr uint32_t kValues = 64;
  constexpr uint64_t kLength = 400;
  Rng rng(29);
  // time -> the probabilities at it, in value order.
  std::map<uint64_t, std::vector<double>> at;
  {
    auto builder = BTreeBuilder::Create(scratch_.Path("btc.bt"),
                                        {kBtcKeySize, kBtcValueSize});
    ASSERT_TRUE(builder.ok());
    for (uint32_t v = 0; v < kValues; ++v) {
      for (uint64_t t = 0; t < kLength; ++t) {
        if (!rng.NextBool(0.3)) continue;
        const double prob = rng.NextDouble();
        std::string value;
        PutDouble(prob, &value);
        ASSERT_TRUE((*builder)->Add(EncodeBtcKey(v, t), value).ok());
        at[t].push_back(prob);
      }
    }
    ASSERT_TRUE((*builder)->Finish(kLength).ok());
  }
  auto tree = BTree::Open(scratch_.Path("btc.bt"), /*pool_pages=*/4);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  std::vector<uint32_t> values(kValues);
  for (uint32_t v = 0; v < kValues; ++v) values[v] = v;
  auto cursor = PredicateCursor::Create(tree->get(), values);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

  auto want = at.begin();
  uint64_t steps = 0;
  while (cursor->valid()) {
    ASSERT_NE(want, at.end());
    ASSERT_EQ(cursor->time(), want->first);
    double sum = 0;
    for (double p : want->second) sum += p;
    EXPECT_EQ(cursor->prob(), sum) << "t=" << want->first;
    const uint64_t next = cursor->time() + 1 + rng.NextBelow(5);
    Status st = cursor->SeekTime(next);
    ASSERT_TRUE(st.ok()) << st.ToString();
    want = at.lower_bound(next);
    ++steps;
  }
  EXPECT_EQ(want, at.end());
  EXPECT_GT(steps, kLength / 4);
}

TEST_F(IndexTest, PredicateCursorOnMissingValueIsInvalid) {
  MarkovianStream stream = test::MakeValidStream(20, 4, 10);
  auto tree =
      test::BuildTreeFromWritten(stream, 0, scratch_.Path("btc.bt"));
  ASSERT_TRUE(tree.ok());
  // Value 3 may exist; use an impossible one via empty support: value 3
  // with all entries... use a value id beyond any support: the stream
  // domain is 4, so value 100 has no entries.
  auto cursor = PredicateCursor::Create(tree->get(), {100});
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE(cursor->valid());
}

TEST_F(IndexTest, BtpIndexOrdersByDecreasingProbability) {
  MarkovianStream stream = test::MakeValidStream(80, 6, 11);
  auto tree = test::BuildTreeFromWritten(stream, 0, scratch_.Path("btp.bt"),
                                         /*btc=*/false);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE((*tree)->CheckInvariants().ok());

  auto cursor = TopProbCursor::Create(tree->get(), {2});
  ASSERT_TRUE(cursor.ok());
  double prev = 1.1;
  std::set<uint64_t> seen;
  size_t count = 0;
  while (cursor->valid()) {
    EXPECT_LE(cursor->prob(), prev + 1e-15);
    prev = cursor->prob();
    EXPECT_NEAR(cursor->prob(),
                stream.marginal(cursor->time()).ProbabilityOf(2), 1e-12);
    EXPECT_TRUE(seen.insert(cursor->time()).second);
    ++count;
    ASSERT_TRUE(cursor->Next().ok());
  }
  size_t expected = 0;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    if (stream.marginal(t).ProbabilityOf(2) > 0) ++expected;
  }
  EXPECT_EQ(count, expected);
}

TEST_F(IndexTest, TopProbCursorMergesValues) {
  MarkovianStream stream = test::MakeValidStream(60, 6, 12);
  auto tree = test::BuildTreeFromWritten(stream, 0, scratch_.Path("btp.bt"),
                                         /*btc=*/false);
  ASSERT_TRUE(tree.ok());
  auto cursor = TopProbCursor::Create(tree->get(), {1, 3, 5});
  ASSERT_TRUE(cursor.ok());
  double prev = 1.1;
  size_t count = 0;
  while (cursor->valid()) {
    EXPECT_LE(cursor->prob(), prev + 1e-15);
    EXPECT_GE(cursor->UpperBound(), cursor->prob());
    prev = cursor->prob();
    ++count;
    ASSERT_TRUE(cursor->Next().ok());
  }
  EXPECT_GT(count, 0u);
}

TEST_F(IndexTest, BuildersRejectBadAttribute) {
  MarkovianStream stream = test::MakeValidStream(10, 4, 13);
  EXPECT_FALSE(
      test::BuildTreeFromWritten(stream, 5, scratch_.Path("x.bt")).ok());
  EXPECT_FALSE(test::BuildTreeFromWritten(stream, 5, scratch_.Path("y.bt"),
                                          /*btc=*/false)
                   .ok());
}

TEST_F(IndexTest, CursorCreateRejectsWrongTreeShape) {
  MarkovianStream stream = test::MakeValidStream(10, 4, 14);
  auto btc = test::BuildTreeFromWritten(stream, 0, scratch_.Path("btc.bt"));
  auto btp = test::BuildTreeFromWritten(stream, 0, scratch_.Path("btp.bt"),
                                        /*btc=*/false);
  ASSERT_TRUE(btc.ok());
  ASSERT_TRUE(btp.ok());
  EXPECT_FALSE(PredicateCursor::Create(btp->get(), {0}).ok());
  EXPECT_FALSE(TopProbCursor::Create(btc->get(), {0}).ok());
}

}  // namespace
}  // namespace caldera
