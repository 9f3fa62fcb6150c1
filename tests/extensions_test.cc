// Tests for features beyond the paper's core algorithms: threshold
// retrieval, archive verification, the predicate-conditioned MC index, and
// multi-attribute streams.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <set>

#include "caldera/executor.h"
#include "caldera/system.h"
#include "caldera/verify.h"
#include "common/encoding.h"
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

using TreeEdit = std::function<void(std::map<std::string, std::string>*)>;

// fsck of a 120-step stream whose BT_C (btc) or BT_P file is rewritten
// with its entries passed through `edit`: a tree that is structurally
// clean but may be inconsistent with the stream.
Status VerifyWithTreeEdited(const test::ScratchDir& scratch, bool btc,
                            const TreeEdit& edit) {
  StreamArchive archive(scratch.Path("archive"));
  CALDERA_CHECK_OK(
      archive.CreateStream("s", test::MakeBandedStream(120, 10, 8)));
  CALDERA_CHECK_OK(btc ? archive.BuildBtc("s", 0) : archive.BuildBtp("s", 0));
  const std::string path = btc ? BtcIndexPath(archive.StreamDir("s"), 0)
                               : BtpIndexPath(archive.StreamDir("s"), 0);
  auto tree = BTree::Open(path);
  CALDERA_CHECK_OK(tree.status());
  std::map<std::string, std::string> entries;
  auto cursor = (*tree)->SeekFirst();
  CALDERA_CHECK_OK(cursor.status());
  while (cursor->valid()) {
    entries.emplace(cursor->key(), cursor->value());
    CALDERA_CHECK_OK(cursor->Next());
  }
  edit(&entries);
  auto builder = BTreeBuilder::Create(path + ".damaged", (*tree)->options());
  CALDERA_CHECK_OK(builder.status());
  for (const auto& [key, value] : entries) {
    CALDERA_CHECK_OK((*builder)->Add(key, value));
  }
  CALDERA_CHECK_OK((*builder)->Finish((*tree)->indexed_length()).status());
  CALDERA_CHECK_OK(RenameFile(path + ".damaged", path));
  auto archived = archive.OpenStream("s");
  CALDERA_CHECK_OK(archived.status());
  VerifyReport report;
  return VerifyArchivedStream(archived->get(), &report);
}

TEST_F(VerifyTest, DetectsIndexStreamMismatch) {
  // A BT_C without its first entry.
  Status st = VerifyWithTreeEdited(scratch_, true, [](auto* entries) {
    entries->erase(entries->begin());
  });
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST_F(VerifyTest, DetectsBtpMissingAnEntry) {
  Status st = VerifyWithTreeEdited(scratch_, false, [](auto* entries) {
    entries->erase(std::next(entries->begin(), entries->size() / 2));
  });
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST_F(VerifyTest, DetectsBtcHoldingAnExtraEntry) {
  // The last timestep, at a value it has no mass for.
  Status st = VerifyWithTreeEdited(scratch_, true, [](auto* entries) {
    uint32_t value = 0;
    while (entries->count(EncodeBtcKey(value, 119)) > 0) ++value;
    std::string prob;
    PutDouble(0.5, &prob);
    entries->emplace(EncodeBtcKey(value, 119), prob);
  });
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
}

TEST_F(VerifyTest, DetectsBtcValueOffByAThousandth) {
  Status st = VerifyWithTreeEdited(scratch_, true, [](auto* entries) {
    std::string& value = std::next(entries->begin(), 7)->second;
    const double prob = GetDouble(value.data());
    value.clear();
    PutDouble(prob + 1e-3, &value);
  });
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
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

// Each tree entry against a mass summed here, outside the library: per
// (attribute value, t), over the states holding the value, in state order.
// BT_C values must equal the sums bit for bit and BT_P keys their encodings
// (clamped to 1), entry for entry, for both attributes.
TEST(MultiAttributeTest, TreeEntriesEqualPerValueStateSums) {
  test::ScratchDir scratch("multi_attr_oracle");
  MarkovianStream stream = MakeTwoAttributeStream(150, 18);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream).ok());
  for (size_t attr : {0, 1}) {
    ASSERT_TRUE(archive.BuildBtc("s", attr).ok());
    ASSERT_TRUE(archive.BuildBtp("s", attr).ok());
  }
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  for (size_t attr : {0, 1}) {
    SCOPED_TRACE("attribute " + std::to_string(attr));
    // Keys compare as bytes, so both containers iterate in tree order.
    std::map<std::string, double> btc;
    std::set<std::string> btp;
    for (uint64_t t = 0; t < stream.length(); ++t) {
      std::map<uint32_t, double> mass;
      for (const Distribution::Entry& e : stream.marginal(t).entries()) {
        mass[stream.schema().AttributeValue(e.value, attr)] += e.prob;
      }
      for (const auto& [value, prob] : mass) {
        btc.emplace(EncodeBtcKey(value, t), prob);
        btp.insert(EncodeBtpKey(value, std::min(prob, 1.0), t));
      }
    }
    auto c = (*archived)->btc(attr)->SeekFirst();
    ASSERT_TRUE(c.ok());
    for (const auto& [key, prob] : btc) {
      ASSERT_TRUE(c->valid());
      ASSERT_EQ(c->key(), key);
      EXPECT_EQ(GetDouble(c->value().data()), prob);
      ASSERT_TRUE(c->Next().ok());
    }
    EXPECT_FALSE(c->valid());
    auto p = (*archived)->btp(attr)->SeekFirst();
    ASSERT_TRUE(p.ok());
    for (const std::string& key : btp) {
      ASSERT_TRUE(p->valid());
      ASSERT_EQ(p->key(), key);
      ASSERT_TRUE(p->Next().ok());
    }
    EXPECT_FALSE(p->valid());
  }
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
