#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "caldera/archive.h"
#include "caldera/executor.h"
#include "common/logging.h"
#include "reg/reg_operator.h"
#include "rfid/workload.h"
#include "test_util.h"

namespace caldera {
namespace {

// Builds archive + all indexes for a stream and opens it.
std::unique_ptr<ArchivedStream> ArchiveWithIndexes(
    const test::ScratchDir& scratch, const std::string& name,
    const MarkovianStream& stream, DiskLayout layout) {
  StreamArchive archive(scratch.Path("archive"));
  CALDERA_CHECK_OK(archive.CreateStream(name, stream, layout));
  CALDERA_CHECK_OK(archive.BuildBtc(name, 0));
  CALDERA_CHECK_OK(archive.BuildBtp(name, 0));
  CALDERA_CHECK_OK(archive.BuildMc(name, {.alpha = 2}));
  auto opened = archive.OpenStream(name);
  CALDERA_CHECK_OK(opened.status());
  return std::move(*opened);
}

// Asserts that `indexed` agrees with the full-scan signal: equal
// probabilities at every timestep it reports, and every nonzero scan
// probability is reported.
void ExpectSignalEqualsScan(const QuerySignal& indexed,
                            const QuerySignal& scan, double tol = 1e-9) {
  std::map<uint64_t, double> by_time;
  for (const TimestepProbability& e : indexed) {
    EXPECT_TRUE(by_time.emplace(e.time, e.prob).second)
        << "duplicate time " << e.time;
  }
  for (const TimestepProbability& e : scan) {
    auto it = by_time.find(e.time);
    if (it != by_time.end()) {
      EXPECT_NEAR(it->second, e.prob, tol) << "t=" << e.time;
    } else {
      EXPECT_NEAR(e.prob, 0.0, tol) << "skipped t=" << e.time
                                    << " has nonzero probability";
    }
  }
}

RegularQuery FixedQuery(uint32_t a, uint32_t b) {
  return RegularQuery::Sequence(
      "fixed", {Predicate::Equality(0, a, "s" + std::to_string(a)),
                Predicate::Equality(0, b, "s" + std::to_string(b))});
}

RegularQuery VariableQuery(uint32_t a, uint32_t b) {
  Predicate target = Predicate::Equality(0, b, "s" + std::to_string(b));
  std::vector<QueryLink> links;
  links.push_back(QueryLink{
      std::nullopt, Predicate::Equality(0, a, "s" + std::to_string(a))});
  links.push_back(QueryLink{Predicate::Not(target), target});
  return RegularQuery("variable", links);
}

class AccessMethodLayoutTest : public ::testing::TestWithParam<DiskLayout> {
 protected:
  AccessMethodLayoutTest() : scratch_("access_methods") {}
  test::ScratchDir scratch_;
};

TEST_P(AccessMethodLayoutTest, ScanMatchesInMemoryReference) {
  MarkovianStream stream = test::MakeBandedStream(150, 16, 1);
  auto archived = ArchiveWithIndexes(scratch_, "s", stream, GetParam());
  RegularQuery query = FixedQuery(3, 4);
  auto result = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<double> reference = RunRegOverStream(query, stream);
  ASSERT_EQ(result->signal.size(), reference.size());
  for (uint64_t t = 0; t < reference.size(); ++t) {
    EXPECT_NEAR(result->signal[t].prob, reference[t], 1e-9);
  }
  EXPECT_EQ(result->stats.reg_updates, stream.length());
  EXPECT_GT(result->stats.stream_io.fetches, 0u);
}

TEST_P(AccessMethodLayoutTest, BTreeMethodEqualsScan) {
  MarkovianStream stream = test::MakeBandedStream(300, 20, 2);
  auto archived = ArchiveWithIndexes(scratch_, "s", stream, GetParam());
  for (auto [a, b] : std::vector<std::pair<uint32_t, uint32_t>>{
           {3, 4}, {10, 11}, {19, 18}, {0, 1}, {5, 5}}) {
    RegularQuery query = FixedQuery(a, b);
    auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
    auto btree = RunPipeline(archived.get(), query, AccessMethodKind::kBTree);
    ASSERT_TRUE(scan.ok());
    ASSERT_TRUE(btree.ok()) << btree.status().ToString();
    ExpectSignalEqualsScan(btree->signal, scan->signal);
    EXPECT_LE(btree->stats.reg_updates, scan->stats.reg_updates);
  }
}

TEST_P(AccessMethodLayoutTest, McMethodEqualsScanOnVariableQueries) {
  MarkovianStream stream = test::MakeBandedStream(300, 20, 3);
  auto archived = ArchiveWithIndexes(scratch_, "s", stream, GetParam());
  for (auto [a, b] : std::vector<std::pair<uint32_t, uint32_t>>{
           {2, 17}, {10, 12}, {0, 19}}) {
    RegularQuery query = VariableQuery(a, b);
    auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
    auto mc = RunPipeline(archived.get(), query, AccessMethodKind::kMcIndex);
    ASSERT_TRUE(scan.ok());
    ASSERT_TRUE(mc.ok()) << mc.status().ToString();
    ExpectSignalEqualsScan(mc->signal, scan->signal);
    EXPECT_LT(mc->stats.reg_updates, scan->stats.reg_updates);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, AccessMethodLayoutTest,
                         ::testing::Values(DiskLayout::kSeparated,
                                           DiskLayout::kCoClustered),
                         [](const auto& info) {
                           return info.param == DiskLayout::kSeparated
                                      ? "Separated"
                                      : "CoClustered";
                         });

class AccessMethodTest : public ::testing::Test {
 protected:
  AccessMethodTest() : scratch_("access_methods_single") {}
  test::ScratchDir scratch_;
};

TEST_F(AccessMethodTest, McMethodHandlesFixedQueriesToo) {
  MarkovianStream stream = test::MakeBandedStream(200, 16, 4);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  RegularQuery query = FixedQuery(7, 8);
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  auto mc = RunPipeline(archived.get(), query, AccessMethodKind::kMcIndex);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(mc.ok());
  ExpectSignalEqualsScan(mc->signal, scan->signal);
}

TEST_F(AccessMethodTest, McMethodHandlesPositiveLoops) {
  MarkovianStream stream = test::MakeBandedStream(200, 12, 5);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  // Q(s2, (s3*, s4)): positive (non-negated) loop; the loop predicate's
  // support joins the cursor set so skipping stays exact.
  std::vector<QueryLink> links;
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 2, "s2")});
  links.push_back(QueryLink{Predicate::Equality(0, 3, "s3"),
                            Predicate::Equality(0, 4, "s4")});
  RegularQuery query("posloop", links);
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  auto mc = RunPipeline(archived.get(), query, AccessMethodKind::kMcIndex);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(mc.ok());
  ExpectSignalEqualsScan(mc->signal, scan->signal);
}

TEST_F(AccessMethodTest, ThreeLinkQueriesAgree) {
  MarkovianStream stream = test::MakeBandedStream(300, 16, 6);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  RegularQuery query = RegularQuery::Sequence(
      "three", {Predicate::Equality(0, 5, "s5"),
                Predicate::Equality(0, 6, "s6"),
                Predicate::Equality(0, 7, "s7")});
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  auto btree = RunPipeline(archived.get(), query, AccessMethodKind::kBTree);
  auto mc = RunPipeline(archived.get(), query, AccessMethodKind::kMcIndex);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(btree.ok());
  ASSERT_TRUE(mc.ok());
  ExpectSignalEqualsScan(btree->signal, scan->signal);
  ExpectSignalEqualsScan(mc->signal, scan->signal);
}

TEST_F(AccessMethodTest, SetPredicatesAgree) {
  MarkovianStream stream = test::MakeBandedStream(250, 16, 7);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  RegularQuery query = RegularQuery::Sequence(
      "set", {Predicate::In(0, {2, 3, 4}, "low"),
              Predicate::In(0, {5, 6}, "mid")});
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  auto btree = RunPipeline(archived.get(), query, AccessMethodKind::kBTree);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(btree.ok());
  ExpectSignalEqualsScan(btree->signal, scan->signal);
}

TEST_F(AccessMethodTest, RangePredicatesAgree) {
  MarkovianStream stream = test::MakeBandedStream(250, 16, 8);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  RegularQuery query = RegularQuery::Sequence(
      "range", {Predicate::Range(0, 2, 5, "r25"),
                Predicate::Range(0, 6, 9, "r69")});
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  auto btree = RunPipeline(archived.get(), query, AccessMethodKind::kBTree);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(btree.ok());
  ExpectSignalEqualsScan(btree->signal, scan->signal);
}

TEST_F(AccessMethodTest, UnindexedLinkRelaxesIntersection) {
  MarkovianStream stream = test::MakeBandedStream(200, 16, 9);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  // Middle link is a negation (not indexable): the B+Tree method must
  // still be exact using cursors on the outer links only.
  RegularQuery query(
      "neg", {QueryLink{std::nullopt, Predicate::Equality(0, 4, "s4")},
              QueryLink{std::nullopt,
                        Predicate::Not(Predicate::Equality(0, 0, "s0"))},
              QueryLink{std::nullopt, Predicate::Equality(0, 6, "s6")}});
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  auto btree = RunPipeline(archived.get(), query, AccessMethodKind::kBTree);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(btree.ok());
  ExpectSignalEqualsScan(btree->signal, scan->signal);
}

TEST_F(AccessMethodTest, BTreeMethodRejectsVariableQueries) {
  MarkovianStream stream = test::MakeBandedStream(50, 8, 10);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  auto result = RunPipeline(archived.get(), VariableQuery(1, 2),
                            AccessMethodKind::kBTree);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AccessMethodTest, SemiIndependentExactWhenNoGaps) {
  // Dense stream: every timestep relevant to the (single-value) predicates,
  // so the semi-independent method never takes the independent branch.
  StreamSchema schema = SingleAttributeSchema("loc", {"a", "b"});
  MarkovianStream stream(schema);
  Rng rng(11);
  Distribution current = Distribution::FromPairs({{0, 0.5}, {1, 0.5}});
  stream.Append(current, Cpt());
  for (int t = 1; t < 60; ++t) {
    Cpt cpt;
    for (const Distribution::Entry& e : current.entries()) {
      double p = 0.2 + 0.6 * rng.NextDouble();
      cpt.SetRow(e.value, {{0, p}, {1, 1.0 - p}});
    }
    current = cpt.Propagate(current);
    stream.Append(current, std::move(cpt));
  }
  auto archived =
      ArchiveWithIndexes(scratch_, "dense", stream, DiskLayout::kSeparated);
  RegularQuery query = VariableQuery(0, 1);
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  auto semi = RunPipeline(archived.get(), query,
                          AccessMethodKind::kSemiIndependent);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(semi.ok());
  ExpectSignalEqualsScan(semi->signal, scan->signal);
}

TEST_F(AccessMethodTest, SemiIndependentApproximatesAcrossGaps) {
  MarkovianStream stream = test::MakeBandedStream(300, 20, 12);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  RegularQuery query = VariableQuery(2, 17);
  auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
  auto semi = RunPipeline(archived.get(), query,
                          AccessMethodKind::kSemiIndependent);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(semi.ok());
  // Approximate: probabilities stay in [0, 1] and the signal is reported
  // at the same relevant timesteps as the exact MC method.
  auto mc = RunPipeline(archived.get(), query, AccessMethodKind::kMcIndex);
  ASSERT_TRUE(mc.ok());
  ASSERT_EQ(semi->signal.size(), mc->signal.size());
  for (size_t i = 0; i < semi->signal.size(); ++i) {
    EXPECT_EQ(semi->signal[i].time, mc->signal[i].time);
    EXPECT_GE(semi->signal[i].prob, -1e-12);
    EXPECT_LE(semi->signal[i].prob, 1.0 + 1e-9);
  }
}

TEST_F(AccessMethodTest, SnippetWorkloadEndToEndAgreement) {
  SnippetStreamSpec spec;
  spec.num_snippets = 20;
  spec.density = 0.5;
  spec.match_rate = 0.5;
  spec.seed = 13;
  auto workload = MakeSnippetStream(spec);
  ASSERT_TRUE(workload.ok());
  auto archived = ArchiveWithIndexes(scratch_, "rfid", workload->stream,
                                     DiskLayout::kSeparated);

  RegularQuery fixed = workload->EnteredRoomFixed();
  auto scan_f = RunPipeline(archived.get(), fixed, AccessMethodKind::kScan);
  auto btree = RunPipeline(archived.get(), fixed, AccessMethodKind::kBTree);
  ASSERT_TRUE(scan_f.ok());
  ASSERT_TRUE(btree.ok());
  ExpectSignalEqualsScan(btree->signal, scan_f->signal, 1e-7);

  RegularQuery variable = workload->EnteredRoomVariable();
  auto scan_v = RunPipeline(archived.get(), variable, AccessMethodKind::kScan);
  auto mc = RunPipeline(archived.get(), variable, AccessMethodKind::kMcIndex);
  ASSERT_TRUE(scan_v.ok());
  ASSERT_TRUE(mc.ok());
  ExpectSignalEqualsScan(mc->signal, scan_v->signal, 1e-7);

  // And the index methods do real pruning on this sparse workload.
  EXPECT_LT(btree->stats.reg_updates, scan_f->stats.reg_updates / 2);
  EXPECT_LT(mc->stats.reg_updates, scan_v->stats.reg_updates / 2);
}

TEST_F(AccessMethodTest, StatsArePopulated) {
  MarkovianStream stream = test::MakeBandedStream(200, 16, 14);
  auto archived =
      ArchiveWithIndexes(scratch_, "s", stream, DiskLayout::kSeparated);
  RegularQuery query = VariableQuery(2, 13);
  auto mc = RunPipeline(archived.get(), query, AccessMethodKind::kMcIndex);
  ASSERT_TRUE(mc.ok());
  EXPECT_GT(mc->stats.relevant_timesteps, 0u);
  EXPECT_GT(mc->stats.reg_updates, 0u);
  EXPECT_GE(mc->stats.elapsed_seconds, 0.0);
  EXPECT_GT(mc->stats.index_io.fetches, 0u);
}

}  // namespace
}  // namespace caldera
