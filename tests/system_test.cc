#include <gtest/gtest.h>

#include <fstream>

#include "caldera/executor.h"
#include "caldera/system.h"
#include "caldera/verify.h"
#include "common/logging.h"
#include "query/parser.h"
#include "rfid/workload.h"
#include "test_util.h"

namespace caldera {
namespace {

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : scratch_("system_test") {}
  test::ScratchDir scratch_;
};

TEST_F(SystemTest, EndToEndArchiveIndexQuery) {
  MarkovianStream stream = test::MakeBandedStream(300, 20, 1);
  Caldera system(scratch_.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ASSERT_TRUE(system.archive()
                  ->CreateStream("bob", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("bob", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("bob", 0).ok());
  ASSERT_TRUE(system.archive()->BuildMc("bob", {}).ok());

  RegularQuery fixed = RegularQuery::Sequence(
      "f",
      {Predicate::Equality(0, 5, "s5"), Predicate::Equality(0, 6, "s6")});

  // Auto planning: the executed method must match the announced plan.
  auto plan = system.Plan("bob", fixed, {});
  ASSERT_TRUE(plan.ok());
  auto auto_result = system.Execute("bob", fixed, {});
  ASSERT_TRUE(auto_result.ok()) << auto_result.status().ToString();
  EXPECT_EQ(auto_result->method, plan->method);

  // Explicit scan produces the same nonzero signal.
  ExecOptions scan_options;
  scan_options.method = AccessMethodKind::kScan;
  auto scan_result = system.Execute("bob", fixed, scan_options);
  ASSERT_TRUE(scan_result.ok());
  for (const TimestepProbability& e : scan_result->signal) {
    if (e.prob <= 0) continue;
    bool found = false;
    for (const TimestepProbability& o : auto_result->signal) {
      if (o.time == e.time) {
        EXPECT_NEAR(o.prob, e.prob, 1e-9);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "missing t=" << e.time;
  }
}

TEST_F(SystemTest, TopKThroughFacade) {
  MarkovianStream stream = test::MakeBandedStream(200, 16, 2);
  Caldera system(scratch_.Path("archive"));
  ASSERT_TRUE(
      system.archive()->CreateStream("s", stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());

  RegularQuery fixed = RegularQuery::Sequence(
      "f",
      {Predicate::Equality(0, 4, "s4"), Predicate::Equality(0, 5, "s5")});
  ExecOptions options;
  options.method = AccessMethodKind::kTopK;
  options.k = 3;
  auto result = system.Execute("s", fixed, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->signal.size(), 3u);
  // Sorted by decreasing probability.
  for (size_t i = 1; i < result->signal.size(); ++i) {
    EXPECT_GE(result->signal[i - 1].prob, result->signal[i].prob);
  }
  // k also trims full signals from other methods.
  options.method = AccessMethodKind::kScan;
  auto scan = system.Execute("s", fixed, options);
  ASSERT_TRUE(scan.ok());
  ASSERT_LE(scan->signal.size(), 3u);
  for (size_t i = 0; i < std::min(scan->signal.size(),
                                  result->signal.size());
       ++i) {
    EXPECT_NEAR(scan->signal[i].prob, result->signal[i].prob, 1e-9);
  }
}

TEST_F(SystemTest, PlanWithoutExecution) {
  MarkovianStream stream = test::MakeBandedStream(100, 12, 3);
  Caldera system(scratch_.Path("archive"));
  ASSERT_TRUE(
      system.archive()->CreateStream("s", stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  auto plan = system.Plan("s", RegularQuery::Sequence(
                                   "f", {Predicate::Equality(0, 2, "s2"),
                                         Predicate::Equality(0, 3, "s3")}));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->reason.empty());
}

TEST_F(SystemTest, UnknownStreamIsNotFound) {
  Caldera system(scratch_.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  RegularQuery query =
      RegularQuery::Sequence("f", {Predicate::Equality(0, 0, "x")});
  EXPECT_EQ(system.Execute("ghost", query, {}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(SystemTest, DuplicateStreamIsRejected) {
  MarkovianStream stream = test::MakeBandedStream(20, 8, 4);
  Caldera system(scratch_.Path("archive"));
  ASSERT_TRUE(
      system.archive()->CreateStream("s", stream, DiskLayout::kSeparated).ok());
  EXPECT_EQ(system.archive()
                ->CreateStream("s", stream, DiskLayout::kSeparated)
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(SystemTest, ListStreams) {
  MarkovianStream stream = test::MakeBandedStream(20, 8, 5);
  Caldera system(scratch_.Path("archive"));
  ASSERT_TRUE(
      system.archive()->CreateStream("zeta", stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(
      system.archive()->CreateStream("alpha", stream, DiskLayout::kSeparated).ok());
  auto names = system.archive()->ListStreams();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"alpha", "zeta"}));
}

TEST_F(SystemTest, FullRfidPipelineWithParserAndDimensions) {
  // The paper's flow (Figure 1): simulate, smooth, archive, index, parse a
  // written query via the dimension table, execute.
  RoutineSpec spec;
  spec.length = 500;
  spec.num_excursions = 2;
  spec.paper_building = false;
  auto workload = MakeRoutineStream(spec);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  Caldera system(scratch_.Path("archive"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("james", workload->stream,
                                 DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("james", 0).ok());
  ASSERT_TRUE(system.archive()->BuildMc("james", {}).ok());

  SchemaResolver resolver(&workload->schema);
  resolver.AddDimension(&workload->types, "type");
  std::string own = workload->schema.label(0, workload->own_office);
  auto query = ParseQuery("Q(Corridor, " + own + ")", resolver);
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  ExecOptions options;
  options.method = AccessMethodKind::kScan;
  auto result = system.Execute("james", *query, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  double peak = 0;
  for (const TimestepProbability& e : result->signal) {
    peak = std::max(peak, e.prob);
  }
  // The person demonstrably entered their office from the corridor.
  EXPECT_GT(peak, 0.1);

  // Invalidation bumps the epoch and reopens the stream.
  auto stale = system.GetStream("james");
  ASSERT_TRUE(stale.ok());
  uint64_t epoch_before = system.stream_epoch();
  EXPECT_EQ(system.InvalidateStreams(), epoch_before + 1);
  auto archived = system.GetStream("james");
  ASSERT_TRUE(archived.ok());
  // A fresh handle was opened, and the pre-invalidation handle is still
  // safe to use (shared ownership — no dangling).
  EXPECT_NE(archived->get(), stale->get());
  EXPECT_EQ((*stale)->length(), (*archived)->length());
}

TEST_F(SystemTest, LeftoverJoinFilesDoNotBreakOpen) {
  // Archives written by older versions may hold join.<column>.* files.
  // Nothing reads them: opening, scanning and verifying ignore them.
  MarkovianStream stream = test::MakeBandedStream(120, 10, 6);
  StreamArchive archive(scratch_.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(archive.BuildMc("s", {}).ok());
  RegularQuery query = RegularQuery::Sequence(
      "f", {Predicate::Equality(0, 3, "s3"), Predicate::Equality(0, 4, "s4")});

  QuerySignal before;
  {
    auto archived = archive.OpenStream("s");
    ASSERT_TRUE(archived.ok()) << archived.status().ToString();
    auto scan = RunPipeline(archived->get(), query, AccessMethodKind::kScan);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    before = scan->signal;
  }

  for (const char* name : {"join.type.meta", "join.type.time.bt"}) {
    std::ofstream out(archive.StreamDir("s") + "/" + name, std::ios::binary);
    out << "not a caldera file";
  }

  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok()) << archived.status().ToString();
  auto scan = RunPipeline(archived->get(), query, AccessMethodKind::kScan);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->signal, before);
  VerifyReport report;
  Status verified = VerifyArchivedStream(archived->get(), &report);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

}  // namespace
}  // namespace caldera
