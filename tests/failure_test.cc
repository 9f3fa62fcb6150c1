// Failure-injection tests: every externally visible corruption or misuse
// must surface as a Status, never as UB or a crash.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <utility>

#include "btree/btree.h"
#include "caldera/archive.h"
#include "caldera/executor.h"
#include "caldera/system.h"
#include "common/encoding.h"
#include "common/logging.h"
#include "index/mc_index.h"
#include "rfid/workload.h"
#include "storage/fault_injection_file.h"
#include "storage/file.h"
#include "storage/record_file.h"
#include "test_util.h"

namespace caldera {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : scratch_("failure_test") {}
  test::ScratchDir scratch_;
};

// Flips one bit of the byte at `offset` in `path`, in place.
void FlipBit(const std::string& path, uint64_t offset) {
  auto f = File::OpenOrCreate(path);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  char c;
  ASSERT_TRUE((*f)->ReadAt(offset, 1, &c).ok());
  c = char(c ^ 1);
  ASSERT_TRUE((*f)->WriteAt(offset, {&c, 1}).ok());
}

// Flips one bit in every non-header page of a pager-backed file, reading
// the page size out of its header. Guarantees any access to a data page
// trips the checksum.
void CorruptEveryDataPage(const std::string& path) {
  auto f = File::OpenOrCreate(path);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  char header[12];
  ASSERT_TRUE((*f)->ReadAt(0, 12, header).ok());
  uint32_t page_size = GetFixed32(header + 8);
  ASSERT_GE(page_size, 512u);
  for (uint64_t off = page_size + 17; off < (*f)->size(); off += page_size) {
    char c;
    ASSERT_TRUE((*f)->ReadAt(off, 1, &c).ok());
    c = char(c ^ 1);
    ASSERT_TRUE((*f)->WriteAt(off, {&c, 1}).ok());
  }
}

void ExpectSameSignal(const std::vector<TimestepProbability>& got,
                      const std::vector<TimestepProbability>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << "entry " << i;
    EXPECT_NEAR(got[i].prob, want[i].prob, 1e-12) << "entry " << i;
  }
}

RegularQuery TwoStepQuery() {
  return RegularQuery::Sequence("f", {Predicate::Equality(0, 3, "s3"),
                                      Predicate::Equality(0, 4, "s4")});
}

TEST_F(FailureTest, BTreeOpenOnGarbageFile) {
  {
    auto f = File::OpenOrCreate(scratch_.Path("garbage.bt"));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(std::string(8192, 'j')).ok());
  }
  EXPECT_FALSE(BTree::Open(scratch_.Path("garbage.bt")).ok());
}

TEST_F(FailureTest, BTreeOpenOnWrongMagic) {
  {
    auto pager = Pager::Create(scratch_.Path("p.bt"), 512);
    ASSERT_TRUE(pager.ok());
    ASSERT_TRUE(
        (*pager)->AppendPage(std::string((*pager)->page_size(), '\0').data())
            .ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  EXPECT_EQ(BTree::Open(scratch_.Path("p.bt")).status().code(),
            StatusCode::kCorruption);
}

TEST_F(FailureTest, BTreeCreateRejectsDegenerateShapes) {
  EXPECT_FALSE(BTreeBuilder::Create(scratch_.Path("a.bt"), {0, 4}, 512).ok());
  EXPECT_FALSE(
      BTreeBuilder::Create(scratch_.Path("b.bt"), {300, 4}, 512).ok());
  EXPECT_FALSE(
      BTreeBuilder::Create(scratch_.Path("c.bt"), {200, 2000}, 512).ok());
}

TEST_F(FailureTest, StreamOpenWithMissingDataFile) {
  MarkovianStream stream = test::MakeBandedStream(40, 8, 1);
  std::string dir = scratch_.Path("s");
  ASSERT_TRUE(WriteStream(dir, stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(RemoveFileIfExists(dir + "/cpts.rec").ok());
  EXPECT_FALSE(StoredStream::Open(dir).ok());
}

TEST_F(FailureTest, StreamOpenWithTruncatedDataFile) {
  MarkovianStream stream = test::MakeBandedStream(40, 8, 2);
  std::string dir = scratch_.Path("s");
  ASSERT_TRUE(WriteStream(dir, stream, DiskLayout::kSeparated).ok());
  {
    auto f = File::OpenOrCreate(dir + "/marginals.rec");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Truncate((*f)->size() / 2).ok());
  }
  EXPECT_FALSE(StoredStream::Open(dir).ok());
}

TEST_F(FailureTest, CorruptRecordPayloadSurfacesOnRead) {
  MarkovianStream stream = test::MakeBandedStream(40, 8, 3);
  std::string dir = scratch_.Path("s");
  ASSERT_TRUE(WriteStream(dir, stream, DiskLayout::kSeparated).ok());
  {
    // Overwrite the middle of the marginal data region with garbage that
    // parses as an absurd entry count.
    auto f = File::OpenOrCreate(dir + "/marginals.rec");
    ASSERT_TRUE(f.ok());
    std::string garbage(256, '\xff');
    ASSERT_TRUE((*f)->WriteAt(2 * 4096 + 100, garbage).ok());
  }
  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok());  // Metadata still intact.
  Distribution marginal;
  bool failed = false;
  for (uint64_t t = 0; t < (*stored)->length(); ++t) {
    if (!(*stored)->ReadMarginal(t, &marginal).ok()) failed = true;
  }
  EXPECT_TRUE(failed);
}

TEST_F(FailureTest, McIndexOpenWithoutMeta) {
  auto index = McIndex::Open(scratch_.Path("nonexistent"),
                             [](uint64_t, Cpt*) { return Status::Ok(); });
  EXPECT_FALSE(index.ok());
}

TEST_F(FailureTest, McIndexMissingLevelFile) {
  MarkovianStream stream = test::MakeBandedStream(64, 8, 4);
  std::string dir = scratch_.Path("mc");
  ASSERT_TRUE(McIndex::Build(stream, dir, {}).ok());
  ASSERT_TRUE(RemoveFileIfExists(dir + "/L2.rec").ok());
  auto index = McIndex::Open(dir, [](uint64_t, Cpt*) { return Status::Ok(); });
  EXPECT_FALSE(index.ok());
}

TEST_F(FailureTest, McMethodWithoutIndexFailsCleanly) {
  MarkovianStream stream = test::MakeBandedStream(60, 8, 5);
  StreamArchive archive(scratch_.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  Predicate t = Predicate::Equality(0, 3, "s3");
  RegularQuery query(
      "v", {QueryLink{std::nullopt, Predicate::Equality(0, 1, "s1")},
            QueryLink{Predicate::Not(t), t}});
  EXPECT_EQ(RunPipeline(archived->get(), query,
                        AccessMethodKind::kMcIndex).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FailureTest, MethodsRejectQueriesInvalidForSchema) {
  MarkovianStream stream = test::MakeBandedStream(60, 8, 6);
  StreamArchive archive(scratch_.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(archive.BuildBtp("s", 0).ok());
  auto archived = archive.OpenStream("s");
  ASSERT_TRUE(archived.ok());
  RegularQuery bogus = RegularQuery::Sequence(
      "b", {Predicate::Equality(0, 99, "nope"),
            Predicate::Equality(0, 100, "nope2")});
  EXPECT_FALSE(RunPipeline(archived->get(), bogus,
                           AccessMethodKind::kScan).ok());
  EXPECT_FALSE(RunPipeline(archived->get(), bogus, AccessMethodKind::kTopK,
                           {.k = 1}).ok());
}

TEST_F(FailureTest, ArchiveOpenStreamWithCorruptIndexFails) {
  MarkovianStream stream = test::MakeBandedStream(60, 8, 7);
  StreamArchive archive(scratch_.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  {
    auto f = File::OpenOrCreate(archive.StreamDir("s") + "/btc.attr0.bt");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->WriteAt(0, std::string(64, 'x')).ok());
  }
  EXPECT_FALSE(archive.OpenStream("s").ok());
}

TEST_F(FailureTest, ScanOnEmptyArchiveDirectory) {
  StreamArchive archive(scratch_.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  EXPECT_EQ(archive.OpenStream("missing").status().code(),
            StatusCode::kNotFound);
  auto list = archive.ListStreams();
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list->empty());
}

TEST_F(FailureTest, FaultInjectionFlipsReadPathBitsOnly) {
  const std::string path = scratch_.Path("flip.dat");
  {
    FaultInjectionOptions options;
    options.flip_bits = {0, 8 * 3 + 1};  // Byte 0 bit 0, byte 3 bit 1.
    ScopedFaultInjection fault("flip.dat", options);
    auto f = File::OpenOrCreate(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("abcdefgh").ok());
    char buf[8];
    ASSERT_TRUE((*f)->ReadAt(0, 8, buf).ok());
    EXPECT_EQ(buf[0], char('a' ^ 1));
    EXPECT_EQ(buf[3], char('d' ^ 2));
    EXPECT_EQ(buf[1], 'b');
    EXPECT_EQ(buf[7], 'h');
    EXPECT_EQ(fault.counters().flipped_bits, 2u);
    EXPECT_EQ(fault.counters().reads, 1u);
  }
  // The flips model silent media corruption on the read path: the bytes on
  // disk are untouched.
  auto f = File::OpenReadOnly(path);
  ASSERT_TRUE(f.ok());
  char buf[8];
  ASSERT_TRUE((*f)->ReadAt(0, 8, buf).ok());
  EXPECT_EQ(std::string(buf, 8), "abcdefgh");
}

TEST_F(FailureTest, CorruptBtcIndexFallsBackToScan) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 11);
  Caldera system(scratch_.Path("a_btc"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  RegularQuery query = TwoStepQuery();
  ExecOptions scan_only;
  scan_only.method = AccessMethodKind::kScan;
  auto reference = system.Execute("s", query, scan_only);
  ASSERT_TRUE(reference.ok());

  // Drop idle handles first: a live handle would re-stamp the header
  // page on close and erase the injected corruption.
  system.InvalidateStreams();
  FlipBit(system.archive()->StreamDir("s") + "/btc.attr0.bt", 100);

  // Strict execution refuses the damaged archive...
  EXPECT_EQ(system.Execute("s", query, {}).status().code(),
            StatusCode::kCorruption);
  // ...while opting into fallback degrades to the scan and matches it.
  ExecOptions rescue;
  rescue.fallback_to_scan = true;
  auto rescued = system.Execute("s", query, rescue);
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
  EXPECT_GE(rescued->stats.scan_fallbacks, 1u);
  EXPECT_GE(rescued->stats.corruption_events, 1u);
  ExpectSameSignal(rescued->signal, reference->signal);
}

TEST_F(FailureTest, CorruptBtpIndexFallsBackToScan) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 12);
  Caldera system(scratch_.Path("a_btp"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  RegularQuery query = TwoStepQuery();
  ExecOptions scan_only;
  scan_only.method = AccessMethodKind::kScan;
  auto reference = system.Execute("s", query, scan_only);
  ASSERT_TRUE(reference.ok());

  system.InvalidateStreams();
  FlipBit(system.archive()->StreamDir("s") + "/btp.attr0.bt", 100);

  EXPECT_FALSE(system.Execute("s", query, {}).ok());
  ExecOptions rescue;
  rescue.fallback_to_scan = true;
  auto rescued = system.Execute("s", query, rescue);
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
  EXPECT_GE(rescued->stats.scan_fallbacks, 1u);
  EXPECT_GE(rescued->stats.corruption_events, 1u);
  ExpectSameSignal(rescued->signal, reference->signal);
}

// Runs the kTopK request `topk` on a healthy archive, damages the BT_P
// index, and checks that the scan rescue answers the way the method did:
// the same times in the same (best-first) order, probabilities within 1e-9.
void ExpectTopKRescueMatchesMethod(const std::string& root, ExecOptions topk) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 12);
  Caldera system(root);
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  RegularQuery query = TwoStepQuery();
  topk.method = AccessMethodKind::kTopK;
  auto healthy = system.Execute("s", query, topk);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_FALSE(healthy->signal.empty());

  system.InvalidateStreams();
  FlipBit(system.archive()->StreamDir("s") + "/btp.attr0.bt", 100);

  topk.fallback_to_scan = true;
  auto rescued = system.Execute("s", query, topk);
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
  EXPECT_GE(rescued->stats.scan_fallbacks, 1u);
  ASSERT_EQ(rescued->signal.size(), healthy->signal.size());
  for (size_t i = 0; i < rescued->signal.size(); ++i) {
    EXPECT_EQ(rescued->signal[i].time, healthy->signal[i].time)
        << "entry " << i;
    EXPECT_NEAR(rescued->signal[i].prob, healthy->signal[i].prob, 1e-9)
        << "entry " << i;
  }
}

TEST_F(FailureTest, RescuedTopKKeepsDefaultK) {
  ExpectTopKRescueMatchesMethod(scratch_.Path("topk_default"), {});
}

TEST_F(FailureTest, RescuedTopKKeepsExplicitK) {
  ExpectTopKRescueMatchesMethod(scratch_.Path("topk_k"), {.k = 7});
}

TEST_F(FailureTest, RescuedThresholdKeepsMethodOrder) {
  ExpectTopKRescueMatchesMethod(scratch_.Path("topk_tau"),
                                {.threshold = 0.01});
}

TEST_F(FailureTest, CorruptMcIndexFallsBackToScan) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 13);
  Caldera system(scratch_.Path("a_mc"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildMc("s", {}).ok());
  RegularQuery query = TwoStepQuery();
  ExecOptions scan_only;
  scan_only.method = AccessMethodKind::kScan;
  auto reference = system.Execute("s", query, scan_only);
  ASSERT_TRUE(reference.ok());

  const std::string meta = system.archive()->StreamDir("s") + "/mc/mc.meta";
  std::string pristine;
  {
    auto f = File::OpenReadOnly(meta);
    ASSERT_TRUE(f.ok());
    pristine.resize((*f)->size());
    ASSERT_TRUE((*f)->ReadAt(0, pristine.size(), pristine.data()).ok());
  }
  // One damaged u32 field each: the magic (bit 0 flipped), num_levels
  // (offset 12) values that once drove a 4-billion-level resize and a
  // 16 GiB allocation, an alpha (offset 8) whose level spans overflow 64
  // bits, and a domain (offset 24) that would size the composition scratch.
  const std::pair<uint64_t, uint32_t> corruptions[] = {
      {0, GetFixed32(pristine.data()) ^ 1},
      {12, 0xFFFFFFFF},
      {12, 0x7FFFFFFF},
      {8, 1u << 16},
      {24, 0x7FFFFFFF},
  };
  for (const auto& [offset, value] : corruptions) {
    SCOPED_TRACE("u32 at " + std::to_string(offset) + " = " +
                 std::to_string(value));
    std::string image = pristine;
    std::string field;
    PutFixed32(value, &field);
    image.replace(offset, field.size(), field);
    {
      auto f = File::OpenOrCreate(meta);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE((*f)->WriteAt(0, image).ok());
    }
    system.InvalidateStreams();

    auto strict = system.Execute("s", query, {});
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kCorruption)
        << strict.status().ToString();
    ExecOptions rescue;
    rescue.fallback_to_scan = true;
    auto rescued = system.Execute("s", query, rescue);
    ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
    EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
    EXPECT_GE(rescued->stats.scan_fallbacks, 1u);
    EXPECT_GE(rescued->stats.corruption_events, 1u);
    ExpectSameSignal(rescued->signal, reference->signal);
  }
}

// An MC level's directory file is part of the index: a flipped bit in it,
// or a directory file cut short by a page, fails the strict query with
// Corruption and the scan rescues it.
TEST_F(FailureTest, CorruptMcLevelDirectoryFallsBackToScan) {
  MarkovianStream stream = test::MakeBandedStream(200, 10, 15);
  Caldera system(scratch_.Path("a_mc_dir"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildMc("s", {}).ok());
  RegularQuery query = TwoStepQuery();
  auto reference = system.Execute(
      "s", query, ExecOptions{.method = AccessMethodKind::kScan});
  ASSERT_TRUE(reference.ok());

  const std::string dir_file =
      RecordFileDirPath(system.archive()->StreamDir("s") + "/mc/L1.rec");
  std::string pristine;
  {
    auto f = File::OpenReadOnly(dir_file);
    ASSERT_TRUE(f.ok());
    pristine.resize((*f)->size());
    ASSERT_TRUE((*f)->ReadAt(0, pristine.size(), pristine.data()).ok());
    // Header page + at least one page of entries.
    ASSERT_GE(pristine.size(), 2 * kDefaultPageSize);
  }
  auto bit_flip = [&] { FlipBit(dir_file, kDefaultPageSize + 40); };
  auto cut_short = [&] {
    auto f = File::Open(dir_file);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Truncate(pristine.size() - kDefaultPageSize).ok());
  };
  const std::pair<const char*, std::function<void()>> faults[] = {
      {"bit flip", bit_flip}, {"cut short", cut_short}};
  for (const auto& [what, corrupt] : faults) {
    SCOPED_TRACE(what);
    {
      auto f = File::OpenOrCreate(dir_file);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE((*f)->Truncate(0).ok());
      ASSERT_TRUE((*f)->WriteAt(0, pristine).ok());
    }
    corrupt();
    system.InvalidateStreams();

    auto strict = system.Execute(
        "s", query, ExecOptions{.method = AccessMethodKind::kMcIndex});
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kCorruption)
        << strict.status().ToString();
    auto rescued = system.Execute(
        "s", query,
        ExecOptions{.method = AccessMethodKind::kMcIndex,
                    .fallback_to_scan = true});
    ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
    EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
    EXPECT_GE(rescued->stats.scan_fallbacks, 1u);
    ExpectSameSignal(rescued->signal, reference->signal);
  }
}

TEST_F(FailureTest, MidQueryIndexCorruptionRescuedByScan) {
  MarkovianStream stream = test::MakeBandedStream(200, 12, 14);
  Caldera system(scratch_.Path("a_mid"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  RegularQuery query = TwoStepQuery();
  ExecOptions scan_only;
  scan_only.method = AccessMethodKind::kScan;
  auto reference = system.Execute("s", query, scan_only);
  ASSERT_TRUE(reference.ok());

  // Every data page of the BT_C index is damaged: whether the corruption is
  // noticed at open time or mid-traversal, the rescue must produce the
  // scan's exact signal.
  system.InvalidateStreams();
  CorruptEveryDataPage(system.archive()->StreamDir("s") + "/btc.attr0.bt");

  ExecOptions strict;
  strict.method = AccessMethodKind::kBTree;
  EXPECT_FALSE(system.Execute("s", query, strict).ok());

  ExecOptions rescue = strict;
  rescue.fallback_to_scan = true;
  auto rescued = system.Execute("s", query, rescue);
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
  EXPECT_EQ(rescued->stats.scan_fallbacks, 1u);
  ExpectSameSignal(rescued->signal, reference->signal);
}

// Execute has one rescue point: however many indexes are damaged, a
// rescued execution reports one scan fallback and at most one corruption
// event, for the failure that sent it to the scan.
TEST_F(FailureTest, TwoCorruptIndexesCountOneRescue) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 18);
  Caldera system(scratch_.Path("a_two"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildMc("s", {}).ok());
  RegularQuery query = TwoStepQuery();
  auto reference = system.Execute(
      "s", query, ExecOptions{.method = AccessMethodKind::kScan});
  ASSERT_TRUE(reference.ok());

  system.InvalidateStreams();
  const std::string dir = system.archive()->StreamDir("s");
  FlipBit(dir + "/btc.attr0.bt", 100);
  FlipBit(dir + "/mc/mc.meta", 0);

  auto rescued =
      system.Execute("s", query, ExecOptions{.fallback_to_scan = true});
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
  EXPECT_EQ(rescued->stats.scan_fallbacks, 1u);
  EXPECT_EQ(rescued->stats.corruption_events, 1u);
  ExpectSameSignal(rescued->signal, reference->signal);
}

// An explicit scan request is rescued too: it needs no index, but the
// strict attempt opens every index of the stream, and a corrupt one fails
// it. The rescue reruns the scan over the data files alone.
TEST_F(FailureTest, ExplicitScanIsRescuedPastACorruptIndex) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 19);
  Caldera system(scratch_.Path("a_scan"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  RegularQuery query = TwoStepQuery();
  ExecOptions scan{.method = AccessMethodKind::kScan};
  auto reference = system.Execute("s", query, scan);
  ASSERT_TRUE(reference.ok());

  system.InvalidateStreams();
  FlipBit(system.archive()->StreamDir("s") + "/btc.attr0.bt", 100);
  EXPECT_EQ(system.Execute("s", query, scan).status().code(),
            StatusCode::kCorruption);

  scan.fallback_to_scan = true;
  auto rescued = system.Execute("s", query, scan);
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
  EXPECT_EQ(rescued->stats.scan_fallbacks, 1u);
  EXPECT_EQ(rescued->stats.corruption_events, 1u);
  ExpectSameSignal(rescued->signal, reference->signal);
}

// Under the fallback, auto planning does not work around one broken index:
// a corrupt BT_P next to a healthy BT_C rescues the whole request to the
// scan rather than planning over the surviving index.
TEST_F(FailureTest, CorruptIndexBesideAHealthyOneRescuesToTheScan) {
  // A sparse snippet workload, on which the planner picks BT_C.
  SnippetStreamSpec spec;
  spec.num_snippets = 25;
  spec.density = 0.15;
  spec.seed = 4;
  auto workload = MakeSnippetStream(spec);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  Caldera system(scratch_.Path("a_beside"));
  ASSERT_TRUE(system.archive()->CreateStream("s", workload->stream).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  RegularQuery query = workload->EnteredRoomFixed();
  auto reference = system.Execute(
      "s", query, ExecOptions{.method = AccessMethodKind::kScan});
  ASSERT_TRUE(reference.ok());
  // On the healthy archive the planner picks the BT_C merge join.
  auto healthy = system.Execute("s", query, {});
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  ASSERT_EQ(healthy->method, AccessMethodKind::kBTree)
      << healthy->stats.plan_summary;

  system.InvalidateStreams();
  FlipBit(system.archive()->StreamDir("s") + "/btp.attr0.bt", 100);

  auto rescued =
      system.Execute("s", query, ExecOptions{.fallback_to_scan = true});
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_EQ(rescued->method, AccessMethodKind::kScan);
  EXPECT_EQ(rescued->stats.scan_fallbacks, 1u);
  EXPECT_EQ(rescued->stats.corruption_events, 1u);
  ExpectSameSignal(rescued->signal, reference->signal);
}

TEST_F(FailureTest, CorruptStreamDataIsNotRescuable) {
  MarkovianStream stream = test::MakeBandedStream(120, 10, 15);
  Caldera system(scratch_.Path("a_data"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  RegularQuery query = TwoStepQuery();
  ASSERT_TRUE(system.Execute("s", query, {}).ok());

  // The stream data itself is the scan's input: with it damaged there is
  // nothing to fall back to, and the error must surface (never a silently
  // wrong signal).
  system.InvalidateStreams();
  CorruptEveryDataPage(system.archive()->StreamDir("s") + "/cpts.rec");

  ExecOptions rescue;
  rescue.fallback_to_scan = true;
  auto result = system.Execute("s", query, rescue);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST_F(FailureTest, RebuildIndexesRecoversFromCorruption) {
  MarkovianStream stream = test::MakeBandedStream(150, 10, 16);
  Caldera system(scratch_.Path("a_rebuild"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildMc("s", {}).ok());
  RegularQuery query = TwoStepQuery();
  ExecOptions scan_only;
  scan_only.method = AccessMethodKind::kScan;
  auto reference = system.Execute("s", query, scan_only);
  ASSERT_TRUE(reference.ok());

  const std::string dir = system.archive()->StreamDir("s");
  system.InvalidateStreams();
  FlipBit(dir + "/btc.attr0.bt", 100);
  FlipBit(dir + "/btp.attr0.bt", 100);
  FlipBit(dir + "/mc/mc.meta", 0);
  EXPECT_FALSE(system.Execute("s", query, {}).ok());

  ASSERT_TRUE(system.RebuildIndexes("s").ok());

  // Strict execution works again, with zero degradation reported.
  auto healed = system.Execute("s", query, {});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->stats.scan_fallbacks, 0u);
  EXPECT_EQ(healed->stats.corruption_events, 0u);
  ExpectSameSignal(healed->signal, reference->signal);
}

// Rewrites bytes of a tree's meta page (page 1) through the pager, which
// re-stamps the page checksum: damage only the meta decoder can catch.
void PatchTreeMeta(const std::string& path, size_t offset,
                   const std::string& bytes) {
  auto pager = Pager::Open(path);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  std::string meta((*pager)->page_size(), '\0');
  ASSERT_TRUE((*pager)->ReadPage(1, meta.data()).ok());
  meta.replace(offset, bytes.size(), bytes);
  ASSERT_TRUE((*pager)->WritePage(1, meta.data()).ok());
  ASSERT_TRUE((*pager)->Sync().ok());
}

// A BT_C that claims to index more timesteps than the stream holds (so a
// handle cannot know which timesteps its tail lacks), and a BT_P in the v1
// format (which records no indexed length), each fail the open with
// Corruption. Under fallback_to_scan the scan answers, and RebuildIndexes
// repairs both.
TEST_F(FailureTest, TreesThatCannotSayWhatTheyIndexAreCorruption) {
  MarkovianStream stream = test::MakeBandedStream(150, 10, 18);
  Caldera system(scratch_.Path("a_tree_meta"));
  ASSERT_TRUE(system.archive()->CreateStream("s", stream).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  const std::string dir = system.archive()->StreamDir("s");
  RegularQuery query = TwoStepQuery();
  auto reference =
      system.Execute("s", query, {.method = AccessMethodKind::kScan});
  ASSERT_TRUE(reference.ok());
  auto btree_reference =
      system.Execute("s", query, {.method = AccessMethodKind::kBTree});
  ASSERT_TRUE(btree_reference.ok());

  const std::string btc = BtcIndexPath(dir, 0);
  const std::string btp = BtpIndexPath(dir, 0);
  for (const auto& [path, offset, bytes] :
       {std::tuple<std::string, size_t, std::string>{btc, 36, ""},
        {btp, 7, "1"}}) {
    SCOPED_TRACE(path);
    std::string patch = bytes;
    if (patch.empty()) PutFixed64(stream.length() + 1, &patch);
    PatchTreeMeta(path, offset, patch);
    system.InvalidateStreams();
    auto opened = ArchivedStream::Open(dir);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << opened.status().ToString();
    auto rescued = system.Execute(
        "s", query,
        {.method = AccessMethodKind::kBTree, .fallback_to_scan = true});
    ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
    EXPECT_EQ(rescued->stats.scan_fallbacks, 1u);
    EXPECT_EQ(rescued->stats.corruption_events, 1u);
    ExpectSameSignal(rescued->signal, reference->signal);

    ASSERT_TRUE(system.RebuildIndexes("s").ok());
    auto healed = system.Execute("s", query,
                                 {.method = AccessMethodKind::kBTree});
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
    EXPECT_EQ(healed->stats.scan_fallbacks, 0u);
    ExpectSameSignal(healed->signal, btree_reference->signal);
    auto tree = BTree::Open(path);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ((*tree)->indexed_length(), stream.length());
  }
}

// An mc.meta in the older CLDRMCI1 layout, which ended in a 20-byte
// trailer of build options (truncation epsilon, maximum span, page size),
// is Corruption: an MC query fails, a rescue answers with the scan, and
// RebuildIndexes rebuilds the index at the default alpha, with the level
// files the older build wrote.
TEST_F(FailureTest, OlderMcMetaIsCorruptionUntilRebuilt) {
  MarkovianStream stream = test::MakeBandedStream(150, 10, 19);
  Caldera system(scratch_.Path("a_mc_v1"));
  ASSERT_TRUE(system.archive()->CreateStream("s", stream).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildMc("s", {}).ok());
  const std::string mc = system.archive()->StreamDir("s") + "/mc";
  RegularQuery query = TwoStepQuery();
  auto reference =
      system.Execute("s", query, {.method = AccessMethodKind::kScan});
  ASSERT_TRUE(reference.ok());
  auto mc_reference =
      system.Execute("s", query, {.method = AccessMethodKind::kMcIndex});
  ASSERT_TRUE(mc_reference.ok()) << mc_reference.status().ToString();
  auto read_file = [](const std::string& path) {
    auto f = File::OpenReadOnly(path);
    CALDERA_CHECK_OK(f.status());
    std::string bytes((*f)->size(), '\0');
    CALDERA_CHECK_OK((*f)->ReadAt(0, bytes.size(), bytes.data()));
    return bytes;
  };
  const std::string level1 = read_file(McIndex::LevelPath(mc, 1));

  std::string older = read_file(mc + "/mc.meta");
  older[7] = '1';
  PutDouble(0.0, &older);
  PutFixed64(0, &older);
  PutFixed32(kDefaultPageSize, &older);
  {
    auto f = File::OpenOrCreate(mc + "/mc.meta");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->WriteAt(0, older).ok());
  }
  system.InvalidateStreams();
  auto strict =
      system.Execute("s", query, {.method = AccessMethodKind::kMcIndex});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption)
      << strict.status().ToString();
  auto rescued = system.Execute(
      "s", query,
      {.method = AccessMethodKind::kMcIndex, .fallback_to_scan = true});
  ASSERT_TRUE(rescued.ok()) << rescued.status().ToString();
  EXPECT_EQ(rescued->stats.scan_fallbacks, 1u);
  ExpectSameSignal(rescued->signal, reference->signal);

  ASSERT_TRUE(system.RebuildIndexes("s").ok());
  auto healed =
      system.Execute("s", query, {.method = AccessMethodKind::kMcIndex});
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed->stats.scan_fallbacks, 0u);
  ExpectSameSignal(healed->signal, mc_reference->signal);
  EXPECT_EQ(read_file(McIndex::LevelPath(mc, 1)), level1);
  auto meta = McIndex::ReadMeta(mc);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->options.alpha, 2u);
}

TEST_F(FailureTest, RandomReadErrorsNeverYieldWrongSignal) {
  MarkovianStream stream = test::MakeBandedStream(100, 10, 17);
  Caldera system(scratch_.Path("a_chaos"));
  ASSERT_TRUE(system.archive()
                  ->CreateStream("s", stream, DiskLayout::kSeparated)
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  RegularQuery query = TwoStepQuery();
  ExecOptions scan_only;
  scan_only.method = AccessMethodKind::kScan;
  auto reference = system.Execute("s", query, scan_only);
  ASSERT_TRUE(reference.ok());

  ExecOptions btree_only;
  btree_only.method = AccessMethodKind::kBTree;
  auto reference_btree = system.Execute("s", query, btree_only);
  ASSERT_TRUE(reference_btree.ok());

  // Random IoErrors on the index file: every outcome must be either a clean
  // Status or a result identical to the pristine run of whichever method
  // ended up executing — never garbage.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    FaultInjectionOptions options;
    options.seed = seed;
    options.read_error_prob = 0.2;
    ScopedFaultInjection fault("btc.attr0.bt", options);
    system.InvalidateStreams();  // Force reopen through the fault hook.
    ExecOptions rescue;
    rescue.fallback_to_scan = true;
    auto result = system.Execute("s", query, rescue);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    } else if (result->method == AccessMethodKind::kScan) {
      ExpectSameSignal(result->signal, reference->signal);
    } else {
      ASSERT_EQ(result->method, AccessMethodKind::kBTree);
      ExpectSameSignal(result->signal, reference_btree->signal);
    }
  }
}

}  // namespace
}  // namespace caldera
