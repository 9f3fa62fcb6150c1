// Tests for features beyond the paper's core algorithms: threshold
// retrieval, archive verification, the predicate-conditioned MC index, and
// multi-attribute streams.

#include <gtest/gtest.h>

#include <cmath>

#include "caldera/executor.h"
#include "caldera/system.h"
#include "caldera/verify.h"
#include "common/logging.h"
#include "index/mc_index.h"
#include "rfid/workload.h"
#include "storage/file.h"
#include "test_util.h"

namespace caldera {
namespace {

std::unique_ptr<ArchivedStream> ArchiveAll(const test::ScratchDir& scratch,
                                           const MarkovianStream& stream,
                                           const std::string& name) {
  StreamArchive archive(scratch.Path("archive"));
  CALDERA_CHECK_OK(archive.CreateStream(name, stream, DiskLayout::kSeparated));
  CALDERA_CHECK_OK(archive.BuildBtc(name, 0));
  CALDERA_CHECK_OK(archive.BuildBtp(name, 0));
  CALDERA_CHECK_OK(archive.BuildMc(name, {}));
  auto opened = archive.OpenStream(name);
  CALDERA_CHECK_OK(opened.status());
  return std::move(*opened);
}

RegularQuery Fixed(uint32_t a, uint32_t b) {
  return RegularQuery::Sequence(
      "f", {Predicate::Equality(0, a, "a"), Predicate::Equality(0, b, "b")});
}

// ---------------------------------------------------------------------------
// Threshold retrieval
// ---------------------------------------------------------------------------

class ThresholdTest : public ::testing::Test {
 protected:
  ThresholdTest() : scratch_("threshold_test") {}
  test::ScratchDir scratch_;
};

TEST_F(ThresholdTest, ReturnsExactlyTheMatchesAboveThreshold) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    MarkovianStream stream = test::MakeBandedStream(300, 16, seed);
    auto archived =
        ArchiveAll(scratch_, stream, "s" + std::to_string(seed));
    RegularQuery query = Fixed(6, 7);
    auto scan = RunPipeline(archived.get(), query, AccessMethodKind::kScan);
    ASSERT_TRUE(scan.ok());
    for (double tau : {0.05, 0.2, 0.5}) {
      auto result = RunPipeline(archived.get(), query, AccessMethodKind::kTopK,
                                {.threshold = tau});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      // Reference: scan entries above tau.
      QuerySignal expected = FilterSignal(scan->signal, tau);
      EXPECT_EQ(result->signal.size(), expected.size()) << "tau=" << tau;
      // Probabilities sorted descending and all above tau.
      for (size_t i = 0; i < result->signal.size(); ++i) {
        EXPECT_GT(result->signal[i].prob, tau);
        if (i > 0) {
          EXPECT_GE(result->signal[i - 1].prob, result->signal[i].prob);
        }
      }
      // Every expected match present with the right probability.
      for (const TimestepProbability& e : expected) {
        bool found = false;
        for (const TimestepProbability& r : result->signal) {
          if (r.time == e.time) {
            EXPECT_NEAR(r.prob, e.prob, 1e-9);
            found = true;
          }
        }
        EXPECT_TRUE(found) << "missing t=" << e.time;
      }
    }
  }
}

TEST_F(ThresholdTest, HighThresholdPrunesAggressively) {
  SnippetStreamSpec spec;
  spec.num_snippets = 60;
  spec.density = 1.0;
  spec.seed = 4;
  auto workload = MakeSnippetStream(spec);
  ASSERT_TRUE(workload.ok());
  auto archived = ArchiveAll(scratch_, workload->stream, "s");
  RegularQuery query = workload->EnteredRoomFixed();

  auto strict = RunPipeline(archived.get(), query, AccessMethodKind::kTopK,
                            {.threshold = 0.9});
  auto loose = RunPipeline(archived.get(), query, AccessMethodKind::kTopK,
                           {.threshold = 0.01});
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_LE(strict->signal.size(), loose->signal.size());
  EXPECT_LE(strict->stats.intervals, loose->stats.intervals);
}

TEST_F(ThresholdTest, RejectsBadThresholds) {
  MarkovianStream stream = test::MakeBandedStream(50, 8, 5);
  auto archived = ArchiveAll(scratch_, stream, "s");
  EXPECT_EQ(RunPipeline(archived.get(), Fixed(1, 2), AccessMethodKind::kTopK,
                        {.threshold = 0.0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunPipeline(archived.get(), Fixed(1, 2), AccessMethodKind::kTopK,
                        {.threshold = 1.0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A valid k does not excuse a negative threshold.
  EXPECT_EQ(RunPipeline(archived.get(), Fixed(1, 2), AccessMethodKind::kTopK,
                        {.k = 3, .threshold = -0.5})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ThresholdTest, FacadeRoutesThresholdQueries) {
  MarkovianStream stream = test::MakeBandedStream(150, 12, 6);
  Caldera system(scratch_.Path("facade"));
  ASSERT_TRUE(system.archive()->CreateStream("s", stream).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  ExecOptions options;
  options.method = AccessMethodKind::kTopK;
  options.threshold = 0.1;
  auto result = system.Execute("s", Fixed(4, 5), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const TimestepProbability& e : result->signal) {
    EXPECT_GT(e.prob, 0.1);
  }
  // Threshold also filters other methods' signals.
  options.method = AccessMethodKind::kScan;
  auto scan = system.Execute("s", Fixed(4, 5), options);
  ASSERT_TRUE(scan.ok());
  for (const TimestepProbability& e : scan->signal) {
    EXPECT_GT(e.prob, 0.1);
  }
}

// ---------------------------------------------------------------------------
// Archive verification
// ---------------------------------------------------------------------------

class VerifyTest : public ::testing::Test {
 protected:
  VerifyTest() : scratch_("verify_test") {}
  test::ScratchDir scratch_;
};

TEST_F(VerifyTest, CleanArchivePasses) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 7);
  auto archived = ArchiveAll(scratch_, stream, "s");
  VerifyReport report;
  Status st = VerifyArchivedStream(archived.get(), &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.timesteps_checked, 120u);
  EXPECT_GT(report.btc_entries_checked, 0u);
  EXPECT_GT(report.btp_entries_checked, 0u);
  EXPECT_GT(report.mc_entries_checked, 0u);
}

TEST_F(VerifyTest, DetectsIndexStreamMismatch) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 8);
  StreamArchive archive(scratch_.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  // Damage the BT_C without breaking its structure: rebuild it without its
  // first entry, which is structurally clean but inconsistent with the
  // stream.
  {
    const std::string path = archive.StreamDir("s") + "/btc.attr0.bt";
    auto tree = BTree::Open(path);
    ASSERT_TRUE(tree.ok());
    auto builder = BTreeBuilder::Create(path + ".damaged", (*tree)->options());
    ASSERT_TRUE(builder.ok());
    auto cursor = (*tree)->SeekFirst();
    ASSERT_TRUE(cursor.ok());
    ASSERT_TRUE(cursor->valid());
    ASSERT_TRUE(cursor->Next().ok());  // Drops the first entry.
    while (cursor->valid()) {
      ASSERT_TRUE((*builder)->Add(cursor->key(), cursor->value()).ok());
      ASSERT_TRUE(cursor->Next().ok());
    }
    ASSERT_TRUE((*builder)->Finish((*tree)->indexed_length()).ok());
    ASSERT_TRUE(RenameFile(path + ".damaged", path).ok());
  }
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  VerifyReport report;
  Status st = VerifyArchivedStream(archived->get(), &report);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST_F(VerifyTest, DetectsStaleIndexAfterStreamSwap) {
  // Archive stream A, build indexes, then swap in stream B's data files:
  // the indexes no longer match.
  MarkovianStream a = test::MakeBandedStream(100, 10, 9);
  MarkovianStream b = test::MakeBandedStream(100, 10, 10);
  StreamArchive archive(scratch_.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", a).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(
      WriteStream(archive.StreamDir("s"), b, DiskLayout::kSeparated).ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  VerifyReport report;
  Status st = VerifyArchivedStream(archived->get(), &report);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Multi-attribute streams
// ---------------------------------------------------------------------------

MarkovianStream MakeTwoAttributeStream(uint64_t length, uint64_t seed) {
  StreamSchema schema;
  schema.AddAttribute("loc", {"H", "O", "C"});
  schema.AddAttribute("mode", {"idle", "busy"});
  // Random valid stream over the 6 composite states.
  MarkovianStream flat = test::MakeValidStream(length, 6, seed, 0.6);
  MarkovianStream stream(schema);
  for (uint64_t t = 0; t < flat.length(); ++t) {
    stream.Append(flat.marginal(t), flat.transition(t));
  }
  return stream;
}

TEST(MultiAttributeTest, PerAttributeIndexesAndCrossAttributeQueries) {
  test::ScratchDir scratch("multi_attr_test");
  MarkovianStream stream = MakeTwoAttributeStream(150, 16);
  ASSERT_TRUE(stream.Validate().ok());

  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 1).ok());
  ASSERT_TRUE(archive.BuildBtp("s", 0).ok());
  ASSERT_TRUE(archive.BuildBtp("s", 1).ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  EXPECT_NE((*archived)->btc(0), nullptr);
  EXPECT_NE((*archived)->btc(1), nullptr);

  // Cross-attribute fixed query: location O, then mode busy.
  RegularQuery query = RegularQuery::Sequence(
      "cross",
      {Predicate::Equality(0, 1, "O"), Predicate::Equality(1, 1, "busy")});
  auto scan = RunPipeline(archived->get(), query, AccessMethodKind::kScan);
  auto btree = RunPipeline(archived->get(), query, AccessMethodKind::kBTree);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(btree.ok()) << btree.status().ToString();
  // Every nonzero scan probability appears identically in the B+Tree
  // method's output.
  for (const TimestepProbability& e : scan->signal) {
    if (e.prob <= 0) continue;
    bool found = false;
    for (const TimestepProbability& o : btree->signal) {
      if (o.time == e.time) {
        EXPECT_NEAR(o.prob, e.prob, 1e-9);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "t=" << e.time;
  }

  // Verification covers both attributes' indexes.
  VerifyReport report;
  Status st = VerifyArchivedStream(archived->get(), &report);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(MultiAttributeTest, MissingAttributeIndexFailsVariableMethod) {
  test::ScratchDir scratch("multi_attr_missing");
  MarkovianStream stream = MakeTwoAttributeStream(80, 17);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());  // Attribute 1 NOT indexed.
  ASSERT_TRUE(archive.BuildMc("s", {}).ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  Predicate busy = Predicate::Equality(1, 1, "busy");
  RegularQuery query(
      "v", {QueryLink{std::nullopt, Predicate::Equality(0, 0, "H")},
            QueryLink{Predicate::Not(busy), busy}});
  auto result = RunPipeline(archived->get(), query, AccessMethodKind::kMcIndex);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace caldera
