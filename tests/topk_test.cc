#include <gtest/gtest.h>

#include <algorithm>

#include "caldera/archive.h"
#include "caldera/executor.h"
#include "common/logging.h"
#include "rfid/workload.h"
#include "test_util.h"

namespace caldera {
namespace {

std::unique_ptr<ArchivedStream> ArchiveWithIndexes(
    const test::ScratchDir& scratch, const MarkovianStream& stream,
    const std::string& name = "s") {
  StreamArchive archive(scratch.Path("archive"));
  CALDERA_CHECK_OK(archive.CreateStream(name, stream, DiskLayout::kSeparated));
  CALDERA_CHECK_OK(archive.BuildBtc(name, 0));
  CALDERA_CHECK_OK(archive.BuildBtp(name, 0));
  auto opened = archive.OpenStream(name);
  CALDERA_CHECK_OK(opened.status());
  return std::move(*opened);
}

RegularQuery FixedQuery(uint32_t a, uint32_t b) {
  return RegularQuery::Sequence(
      "fixed", {Predicate::Equality(0, a, "s" + std::to_string(a)),
                Predicate::Equality(0, b, "s" + std::to_string(b))});
}

// Reference top-k from the scan signal (positive entries only).
QuerySignal ReferenceTopK(const QuerySignal& scan, size_t k) {
  QuerySignal positive;
  for (const TimestepProbability& e : scan) {
    if (e.prob > 0) positive.push_back(e);
  }
  std::sort(positive.begin(), positive.end(),
            [](const TimestepProbability& a, const TimestepProbability& b) {
              if (a.prob != b.prob) return a.prob > b.prob;
              return a.time < b.time;
            });
  if (positive.size() > k) positive.resize(k);
  return positive;
}

void ExpectTopKEquals(const QuerySignal& actual, const QuerySignal& expected,
                      double tol = 1e-9) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    // Probabilities must match rank by rank; times may differ only between
    // entries with (numerically) identical probabilities.
    EXPECT_NEAR(actual[i].prob, expected[i].prob, tol) << "rank " << i;
  }
}

class TopKTest : public ::testing::Test {
 protected:
  TopKTest() : scratch_("topk_test") {}
  test::ScratchDir scratch_;
};

TEST_F(TopKTest, MatchesScanTopKAcrossSeedsAndK) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    MarkovianStream stream = test::MakeBandedStream(300, 16, seed);
    auto archived =
        ArchiveWithIndexes(scratch_, stream, "s" + std::to_string(seed));
    RegularQuery query = FixedQuery(6, 7);
    auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
    ASSERT_TRUE(scan.ok());
    for (size_t k : {1u, 3u, 10u}) {
      auto topk = RunPipeline(archived.get(), query, AccessMethodKind::kTopK,
                              {.k = k});
      ASSERT_TRUE(topk.ok()) << topk.status().ToString();
      ExpectTopKEquals(topk->signal, ReferenceTopK(scan->signal, k));
    }
  }
}

TEST_F(TopKTest, KLargerThanMatchCountReturnsAll) {
  MarkovianStream stream = test::MakeBandedStream(150, 16, 4);
  auto archived = ArchiveWithIndexes(scratch_, stream);
  RegularQuery query = FixedQuery(2, 3);
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  ASSERT_TRUE(scan.ok());
  auto topk = RunPipeline(archived.get(), query, AccessMethodKind::kTopK,
                          {.k = 100000});
  ASSERT_TRUE(topk.ok());
  ExpectTopKEquals(topk->signal, ReferenceTopK(scan->signal, 100000));
}

TEST_F(TopKTest, SetPredicateTopK) {
  MarkovianStream stream = test::MakeBandedStream(250, 16, 5);
  auto archived = ArchiveWithIndexes(scratch_, stream);
  RegularQuery query = RegularQuery::Sequence(
      "set", {Predicate::In(0, {4, 5}, "a"), Predicate::In(0, {6, 7}, "b")});
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  ASSERT_TRUE(scan.ok());
  auto topk = RunPipeline(archived.get(), query, AccessMethodKind::kTopK,
                          {.k = 5});
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ExpectTopKEquals(topk->signal, ReferenceTopK(scan->signal, 5));
}

TEST_F(TopKTest, ThreeLinkTopK) {
  MarkovianStream stream = test::MakeBandedStream(300, 12, 6);
  auto archived = ArchiveWithIndexes(scratch_, stream);
  RegularQuery query = RegularQuery::Sequence(
      "three",
      {Predicate::Equality(0, 4, "s4"), Predicate::Equality(0, 5, "s5"),
       Predicate::Equality(0, 6, "s6")});
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  ASSERT_TRUE(scan.ok());
  auto topk = RunPipeline(archived.get(), query, AccessMethodKind::kTopK,
                          {.k = 3});
  ASSERT_TRUE(topk.ok());
  ExpectTopKEquals(topk->signal, ReferenceTopK(scan->signal, 3));
}

TEST_F(TopKTest, PrunesOnPeakySignals) {
  // Snippet workload with matches: the top-1 search must terminate without
  // evaluating every candidate interval.
  SnippetStreamSpec spec;
  spec.num_snippets = 40;
  spec.density = 1.0;
  spec.match_rate = 1.0;
  spec.seed = 7;
  auto workload = MakeSnippetStream(spec);
  ASSERT_TRUE(workload.ok());
  auto archived = ArchiveWithIndexes(scratch_, workload->stream);
  RegularQuery query = workload->EnteredRoomFixed();

  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  ASSERT_TRUE(scan.ok());
  auto topk = RunPipeline(archived.get(), query, AccessMethodKind::kTopK,
                          {.k = 1});
  ASSERT_TRUE(topk.ok());
  ExpectTopKEquals(topk->signal, ReferenceTopK(scan->signal, 1), 1e-7);

  // Candidate count strictly below the total number of index entries (each
  // entry of either link's cursor can spawn one candidate): the threshold
  // test cut the walk short.
  uint64_t total_entries = 0;
  for (uint64_t t = 0; t < workload->stream.length(); ++t) {
    if (workload->stream.marginal(t).ProbabilityOf(workload->target_room) >
        0) {
      ++total_entries;
    }
    if (workload->stream.marginal(t).ProbabilityOf(workload->target_hall) >
        0) {
      ++total_entries;
    }
  }
  EXPECT_LT(topk->stats.relevant_timesteps + topk->stats.pruned_candidates,
            total_entries);
}

TEST_F(TopKTest, RejectsUnsupportedQueries) {
  MarkovianStream stream = test::MakeBandedStream(50, 8, 8);
  auto archived = ArchiveWithIndexes(scratch_, stream);
  // Variable-length.
  Predicate t = Predicate::Equality(0, 2, "s2");
  RegularQuery variable(
      "v", {QueryLink{std::nullopt, Predicate::Equality(0, 1, "s1")},
            QueryLink{Predicate::Not(t), t}});
  EXPECT_EQ(RunPipeline(archived.get(), variable, AccessMethodKind::kTopK,
                        {.k = 1}).status().code(),
            StatusCode::kFailedPrecondition);
  // Range predicate (unsupported by the top-k method, Section 3.4.1).
  RegularQuery range = RegularQuery::Sequence(
      "r", {Predicate::Range(0, 0, 3, "r"), Predicate::Equality(0, 5, "s5")});
  EXPECT_EQ(RunPipeline(archived.get(), range, AccessMethodKind::kTopK,
                        {.k = 1}).status().code(),
            StatusCode::kFailedPrecondition);
  // k = 0.
  EXPECT_EQ(RunPipeline(archived.get(), FixedQuery(1, 2),
                        AccessMethodKind::kTopK, {.k = 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TopKTest, WorksWhenNoMatchExists) {
  SnippetStreamSpec spec;
  spec.num_snippets = 10;
  spec.density = 0.0;  // Target room never supported.
  spec.seed = 9;
  auto workload = MakeSnippetStream(spec);
  ASSERT_TRUE(workload.ok());
  auto archived = ArchiveWithIndexes(scratch_, workload->stream);
  auto topk =
      RunPipeline(archived.get(), workload->EnteredRoomFixed(),
                  AccessMethodKind::kTopK, {.k = 5});
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  EXPECT_TRUE(topk->signal.empty());
}

}  // namespace
}  // namespace caldera
