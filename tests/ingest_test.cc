// End-to-end tests for the live-ingestion subsystem (src/ingest/): the
// offline-vs-incremental differential (including a crash/replay mid-way),
// the crash-recovery fault matrix, the O(log n) incremental MC maintenance
// bound, snapshot consistency under concurrent ingest and concurrent
// readers of one stream, and the facade epoch-bump wiring.

#include "ingest/ingestor.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "caldera/batch.h"
#include "caldera/executor.h"
#include "caldera/system.h"
#include "caldera/verify.h"
#include "common/crc32c.h"
#include "common/encoding.h"
#include "common/rng.h"
#include "index/attribute_index.h"
#include "index/mc_index.h"
#include "rfid/workload.h"
#include "storage/fault_injection_file.h"
#include "storage/record_file.h"
#include "storage/wal.h"
#include "test_util.h"

namespace caldera {
namespace {

// The first `len` timesteps of `full` as a standalone stream.
MarkovianStream Prefix(const MarkovianStream& full, uint64_t len) {
  MarkovianStream out(full.schema());
  for (uint64_t t = 0; t < len; ++t) {
    out.Append(full.marginal(t), t == 0 ? Cpt() : full.transition(t));
  }
  return out;
}

// Timesteps [from, from + count) of `full` as an ingest batch.
std::vector<IngestTimestep> Slice(const MarkovianStream& full, uint64_t from,
                                  uint64_t count) {
  std::vector<IngestTimestep> batch;
  batch.reserve(count);
  for (uint64_t t = from; t < from + count; ++t) {
    batch.push_back(IngestTimestep{full.marginal(t), full.transition(t)});
  }
  return batch;
}

// Bit-exact signal comparison: the differential acceptance criterion is
// byte-identical results, not epsilon-close ones — the incremental path
// must perform the same floating-point operations as the offline build.
void ExpectSignalsIdentical(const QuerySignal& got, const QuerySignal& want,
                            const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << what << " entry " << i;
    EXPECT_EQ(got[i].prob, want[i].prob) << what << " entry " << i;
  }
}

bool SignalsEqual(const QuerySignal& a, const QuerySignal& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].prob != b[i].prob) return false;
  }
  return true;
}

// Every stored MC level entry of `live_dir` equals the offline-built one.
void ExpectMcLevelsIdentical(const std::string& oracle_dir,
                             const std::string& live_dir) {
  auto oracle_meta = McIndex::ReadMeta(oracle_dir + "/mc");
  auto live_meta = McIndex::ReadMeta(live_dir + "/mc");
  ASSERT_TRUE(oracle_meta.ok() && live_meta.ok());
  ASSERT_EQ(oracle_meta->level_counts, live_meta->level_counts);
  for (size_t i = 0; i < oracle_meta->level_counts.size(); ++i) {
    const std::string level_file =
        "/mc/L" + std::to_string(i + 1) + ".rec";
    auto oracle = RecordFileReader::Open(oracle_dir + level_file, 4);
    auto live = RecordFileReader::Open(live_dir + level_file, 4);
    ASSERT_TRUE(oracle.ok() && live.ok()) << level_file;
    std::string a, b;
    for (uint64_t k = 0; k < oracle_meta->level_counts[i]; ++k) {
      ASSERT_TRUE((*oracle)->Get(k, &a).ok());
      ASSERT_TRUE((*live)->Get(k, &b).ok());
      ASSERT_EQ(a, b) << level_file << " entry " << k;
    }
  }
}

RegularQuery FixedQuery() {
  return RegularQuery::Sequence(
      "fixed", {Predicate::Equality(0, 2, "v2"), Predicate::Equality(0, 3, "v3")});
}

RegularQuery KleeneQuery() {
  Predicate p5 = Predicate::Equality(0, 5, "v5");
  std::vector<QueryLink> links;
  links.push_back(QueryLink{Predicate::Not(p5), p5});
  links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 4, "v4")});
  return RegularQuery("kleene", std::move(links));
}

// Runs the same query via the same method against both streams of one
// facade and demands bit-identical signals.
void ExpectStreamsAgree(Caldera* system, const std::string& oracle,
                        const std::string& live) {
  const RegularQuery fixed = FixedQuery();
  const RegularQuery kleene = KleeneQuery();
  struct Case {
    RegularQuery query;
    ExecOptions options;
    std::string tag;
  };
  std::vector<Case> cases = {
      {fixed, ExecOptions{.method = AccessMethodKind::kScan}, "fixed/scan"},
      {fixed, ExecOptions{.method = AccessMethodKind::kBTree}, "fixed/btree"},
      {fixed, ExecOptions{.method = AccessMethodKind::kTopK, .k = 5},
       "fixed/topk"},
      {fixed, ExecOptions{.method = AccessMethodKind::kMcIndex}, "fixed/mc"},
      {fixed, ExecOptions{.method = AccessMethodKind::kSemiIndependent},
       "fixed/semi"},
      {kleene, ExecOptions{.method = AccessMethodKind::kScan}, "kleene/scan"},
      {kleene, ExecOptions{.method = AccessMethodKind::kMcIndex}, "kleene/mc"},
      {kleene, ExecOptions{.method = AccessMethodKind::kSemiIndependent},
       "kleene/semi"},
  };
  for (const Case& c : cases) {
    auto want = system->Execute(oracle, c.query, c.options);
    auto got = system->Execute(live, c.query, c.options);
    ASSERT_TRUE(want.ok()) << c.tag << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << c.tag << ": " << got.status().ToString();
    ExpectSignalsIdentical(got->signal, want->signal, c.tag);
  }
}

struct DifferentialVariant {
  DiskLayout layout;
  McIndexOptions mc;
};

class IngestDifferentialTest
    : public ::testing::TestWithParam<size_t> {};

// The acceptance-criteria differential: a stream archived offline at full
// length vs a prefix archive grown to the same length through the ingest
// pipeline — with a simulated crash (committed-but-unapplied batch) and
// WAL replay mid-way — must answer every access method bit-identically,
// and the incrementally extended MC index must hold byte-identical
// entries.
TEST_P(IngestDifferentialTest, OfflineAndIncrementalBuildsAreBitIdentical) {
  const DifferentialVariant variants[] = {
      {DiskLayout::kSeparated, McIndexOptions{.alpha = 2}},
      // Co-clustered layout + a non-default alpha: proves the extension
      // recovers alpha from the persisted metadata instead of assuming the
      // default.
      {DiskLayout::kCoClustered, McIndexOptions{.alpha = 3}},
  };
  const DifferentialVariant& variant = variants[GetParam()];
  test::ScratchDir scratch("ingest_diff_" + std::to_string(GetParam()));

  const uint32_t domain = 10;
  const uint64_t full_len = 260;
  const uint64_t prefix_len = 180;
  MarkovianStream full = test::MakeBandedStream(full_len, domain, 41);
  ASSERT_TRUE(full.Validate(1e-6).ok());

  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  auto archive_stream = [&](const std::string& name,
                            const MarkovianStream& stream) {
    ASSERT_TRUE(
        system.archive()->CreateStream(name, stream, variant.layout).ok());
    ASSERT_TRUE(system.archive()->BuildBtc(name, 0).ok());
    ASSERT_TRUE(system.archive()->BuildBtp(name, 0).ok());
    ASSERT_TRUE(system.archive()->BuildMc(name, variant.mc).ok());
  };
  archive_stream("oracle", full);
  archive_stream("live", Prefix(full, prefix_len));

  auto ingestor = system.OpenForIngest("live");
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  ASSERT_TRUE((*ingestor)->Append(Slice(full, 180, 1)).ok());
  ASSERT_TRUE((*ingestor)->Append(Slice(full, 181, 19)).ok());
  EXPECT_EQ((*ingestor)->length(), 200u);

  // Crash mid-way: the batch reaches the WAL commit point but is never
  // applied; the handle is poisoned, and reopening replays it.
  ASSERT_TRUE((*ingestor)->CommitWithoutApply(Slice(full, 200, 25)).ok());
  EXPECT_TRUE((*ingestor)->broken());
  EXPECT_FALSE((*ingestor)->Append(Slice(full, 225, 1)).ok());
  ingestor->reset();

  auto reopened = system.OpenForIngest("live");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->length(), 225u);
  // No checkpoint ran, so the window's two acknowledged batches are redone
  // along with the unapplied one.
  EXPECT_EQ((*reopened)->stats().batches_recovered, 3u);
  ASSERT_TRUE((*reopened)->Append(Slice(full, 225, 35)).ok());
  ASSERT_EQ((*reopened)->length(), full_len);

  ExpectStreamsAgree(&system, "oracle", "live");
  ExpectMcLevelsIdentical(system.archive()->StreamDir("oracle"),
                          system.archive()->StreamDir("live"));
}

INSTANTIATE_TEST_SUITE_P(Variants, IngestDifferentialTest,
                         ::testing::Values(0, 1));

// One cell of the crash matrix: inject `fault` on files matching `target`
// while a batch is appended, reopen clean, and demand the recovered stream
// equals an offline-built oracle at whatever length survived (base or
// base + batch — never anything else).
void RunCrashRecoveryCase(const std::string& tag, const std::string& target,
                          const FaultInjectionOptions& fault) {
  SCOPED_TRACE(tag);
  test::ScratchDir scratch("ingest_crash_" + tag);
  const uint32_t domain = 8;
  const uint64_t base_len = 200;
  const uint64_t full_len = 240;
  MarkovianStream full = test::MakeBandedStream(full_len, domain, 17);

  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, base_len)).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(archive.BuildBtp("s", 0).ok());
  ASSERT_TRUE(archive.BuildMc("s", {.alpha = 2}).ok());
  const std::string dir = archive.StreamDir("s");

  {
    ScopedFaultInjection inject(target, fault);
    auto ingestor = StreamIngestor::Open(dir);
    if (ingestor.ok()) {
      // The append may fail (that is the point); state must stay sound.
      Status ignored =
          (*ingestor)->Append(Slice(full, base_len, full_len - base_len));
      (void)ignored;
    }
  }

  // Reopen without injection: recovery must land on base or base+batch.
  auto recovered = StreamIngestor::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const uint64_t len = (*recovered)->length();
  ASSERT_TRUE(len == base_len || len == full_len) << "recovered to " << len;
  recovered->reset();

  // Oracle: the same stream archived offline at the recovered length.
  ASSERT_TRUE(archive.CreateStream("oracle", Prefix(full, len)).ok());
  ASSERT_TRUE(archive.BuildBtc("oracle", 0).ok());
  ASSERT_TRUE(archive.BuildBtp("oracle", 0).ok());
  ASSERT_TRUE(archive.BuildMc("oracle", {.alpha = 2}).ok());

  auto live = archive.OpenStream("s");
  auto oracle = archive.OpenStream("oracle");
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  for (const RegularQuery& query : {FixedQuery(), KleeneQuery()}) {
    auto want_scan = RunPipeline(oracle->get(), query, AccessMethodKind::kScan);
    auto got_scan = RunPipeline(live->get(), query, AccessMethodKind::kScan);
    ASSERT_TRUE(want_scan.ok() && got_scan.ok());
    ExpectSignalsIdentical(got_scan->signal, want_scan->signal,
                           tag + "/scan/" + query.name());
    auto want_mc = RunPipeline(oracle->get(), query,
                               AccessMethodKind::kMcIndex);
    auto got_mc = RunPipeline(live->get(), query, AccessMethodKind::kMcIndex);
    ASSERT_TRUE(want_mc.ok() && got_mc.ok());
    ExpectSignalsIdentical(got_mc->signal, want_mc->signal,
                           tag + "/mc/" + query.name());
    if (query.fixed_length()) {
      auto want_bt = RunPipeline(oracle->get(), query,
                                 AccessMethodKind::kBTree);
      auto got_bt = RunPipeline(live->get(), query, AccessMethodKind::kBTree);
      ASSERT_TRUE(want_bt.ok() && got_bt.ok());
      ExpectSignalsIdentical(got_bt->signal, want_bt->signal,
                             tag + "/btree/" + query.name());
    }
  }
}

TEST(IngestCrashRecoveryTest, WalWriteFailsBeforeCommit) {
  FaultInjectionOptions fault;
  fault.fail_writes_from = 0;
  RunCrashRecoveryCase("wal_write0", "ingest.wal", fault);
}

TEST(IngestCrashRecoveryTest, WalWriteTearsMidJournal) {
  FaultInjectionOptions fault;
  fault.fail_writes_from = 2;
  fault.torn_writes = true;
  RunCrashRecoveryCase("wal_torn2", "ingest.wal", fault);
}

TEST(IngestCrashRecoveryTest, WalSyncFails) {
  FaultInjectionOptions fault;
  fault.fail_sync = true;
  RunCrashRecoveryCase("wal_sync", "ingest.wal", fault);
}

TEST(IngestCrashRecoveryTest, MarginalAppendTearsAfterCommit) {
  FaultInjectionOptions fault;
  fault.fail_writes_from = 0;
  fault.torn_writes = true;
  RunCrashRecoveryCase("marginals_torn", "marginals.rec", fault);
}

TEST(IngestCrashRecoveryTest, CptAppendFailsAfterCommit) {
  FaultInjectionOptions fault;
  fault.fail_writes_from = 1;
  RunCrashRecoveryCase("cpts_write1", "cpts.rec", fault);
}

TEST(IngestCrashRecoveryTest, McLevelExtensionTears) {
  FaultInjectionOptions fault;
  fault.fail_writes_from = 0;
  fault.torn_writes = true;
  RunCrashRecoveryCase("mc_l1_torn", "L1.rec", fault);
}

TEST(IngestCrashRecoveryTest, DataSyncFails) {
  FaultInjectionOptions fault;
  fault.fail_sync = true;
  RunCrashRecoveryCase("marginals_sync", "marginals.rec", fault);
}

// The directory files alone (the cases above match them too, by
// substring): a torn or unsynced directory append must also roll back.
TEST(IngestCrashRecoveryTest, MarginalDirectoryAppendTears) {
  FaultInjectionOptions fault;
  fault.fail_writes_from = 0;
  fault.torn_writes = true;
  RunCrashRecoveryCase("marginals_dir_torn", "marginals.rec.dir", fault);
}

TEST(IngestCrashRecoveryTest, MarginalDirectorySyncFails) {
  FaultInjectionOptions fault;
  fault.fail_sync = true;
  RunCrashRecoveryCase("marginals_dir_sync", "marginals.rec.dir", fault);
}

TEST(IngestCrashRecoveryTest, McLevelDirectoryAppendTears) {
  FaultInjectionOptions fault;
  fault.fail_writes_from = 0;
  fault.torn_writes = true;
  RunCrashRecoveryCase("mc_l1_dir_torn", "mc/L1.rec.dir", fault);
}

TEST(IngestCrashRecoveryTest, McLevelDirectorySyncFails) {
  FaultInjectionOptions fault;
  fault.fail_sync = true;
  RunCrashRecoveryCase("mc_l1_dir_sync", "mc/L1.rec.dir", fault);
}

// A crash *during recovery* (undo restore / redo hits an I/O error) leaves
// the WAL intact; the next clean open finishes the job.
TEST(IngestCrashRecoveryTest, RecoveryItselfCanCrashAndRetry) {
  test::ScratchDir scratch("ingest_rec_retry");
  MarkovianStream full = test::MakeBandedStream(200, 8, 23);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 160)).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  const std::string dir = archive.StreamDir("s");

  {
    auto ingestor = StreamIngestor::Open(dir);
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->CommitWithoutApply(Slice(full, 160, 40)).ok());
  }
  {
    // First recovery attempt dies re-applying the batch.
    FaultInjectionOptions fault;
    fault.fail_writes_from = 0;
    ScopedFaultInjection inject("marginals.rec", fault);
    auto ingestor = StreamIngestor::Open(dir);
    EXPECT_FALSE(ingestor.ok());
  }
  auto ingestor = StreamIngestor::Open(dir);
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  EXPECT_EQ((*ingestor)->length(), 200u);
  EXPECT_EQ((*ingestor)->stats().batches_recovered, 1u);
}

// ---------------------------------------------------------------------------
// The crash model: ScopedFaultInjection::Crash loses every write made since
// its file's last fsync, or keeps a seeded part of them (partial
// write-back). The cells below crash inside a checkpoint window, inside a
// checkpoint and inside recovery; each must recover to exactly the
// acknowledged length, answer like an offline build on every method and
// keep the MC levels byte-identical.

constexpr uint64_t kWindowBase = 200;

// A stream of kWindowBase + 100 timesteps the window cells slice from.
const MarkovianStream& WindowStream() {
  static const MarkovianStream full = test::MakeBandedStream(300, 8, 83);
  return full;
}

// Archives `name` as the first `length` timesteps of WindowStream, with
// BT_C, BT_P and an alpha-2 MC index.
void ArchiveWindowStream(Caldera* system, const std::string& name,
                         uint64_t length) {
  ASSERT_TRUE(
      system->archive()->CreateStream(name, Prefix(WindowStream(), length))
          .ok());
  ASSERT_TRUE(system->archive()->BuildBtc(name, 0).ok());
  ASSERT_TRUE(system->archive()->BuildBtp(name, 0).ok());
  ASSERT_TRUE(system->archive()->BuildMc(name, {.alpha = 2}).ok());
}

// Every entry of a handle's BT_C and BT_P over attribute 0 (file and tail
// merged) equals, in order, the one of a handle on the offline build
// `want_dir`.
void ExpectTreesHoldTheSameEntries(const std::string& want_dir,
                                   const std::string& got_dir) {
  auto want = ArchivedStream::Open(want_dir);
  auto got = ArchivedStream::Open(got_dir);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (bool is_btc : {true, false}) {
    SCOPED_TRACE(is_btc ? "BT_C" : "BT_P");
    BTree* a = is_btc ? (*want)->btc(0) : (*want)->btp(0);
    BTree* b = is_btc ? (*got)->btc(0) : (*got)->btp(0);
    ASSERT_TRUE(a != nullptr && b != nullptr);
    ASSERT_TRUE(b->CheckInvariants().ok());
    EXPECT_EQ(b->length(), (*got)->length());
    auto ca = a->SeekFirst();
    auto cb = b->SeekFirst();
    ASSERT_TRUE(ca.ok() && cb.ok());
    uint64_t entries = 0;
    for (; ca->valid(); ++entries) {
      ASSERT_TRUE(cb->valid()) << "ends at entry " << entries;
      ASSERT_EQ(ca->key(), cb->key()) << "entry " << entries;
      ASSERT_EQ(ca->value(), cb->value()) << "entry " << entries;
      ASSERT_TRUE(ca->Next().ok() && cb->Next().ok());
    }
    EXPECT_FALSE(cb->valid()) << "holds more than " << entries;
  }
}

// Opens `name` cleanly, which recovers it, and demands the acknowledged
// length and, against an offline build of that length, agreement on every
// method, B+ trees with the same entries and byte-identical MC levels.
void ExpectRecoversTo(Caldera* system, const std::string& name,
                      uint64_t acknowledged) {
  {
    auto recovered = StreamIngestor::Open(system->archive()->StreamDir(name));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_EQ((*recovered)->length(), acknowledged);
  }
  const std::string oracle = "oracle_" + name;
  ArchiveWindowStream(system, oracle, acknowledged);
  const std::string want = system->archive()->StreamDir(oracle);
  const std::string got = system->archive()->StreamDir(name);
  ExpectStreamsAgree(system, oracle, name);
  ExpectTreesHoldTheSameEntries(want, got);
  ExpectMcLevelsIdentical(want, got);
}

// Batch sizes of the five commits of a window.
constexpr uint64_t kWindowBatches[] = {1, 2, 1, 7, 1};

// On an ingestor freshly opened over a kWindowBase-step stream: two
// commits and a checkpoint, so that a window starts, then the first
// `commits` batches of kWindowBatches. Returns the acknowledged length, or
// 0 after a failed expectation.
uint64_t RunWindow(StreamIngestor* ingestor, int commits) {
  EXPECT_TRUE(ingestor->Append(Slice(WindowStream(), kWindowBase, 3)).ok());
  EXPECT_TRUE(ingestor->Append(Slice(WindowStream(), kWindowBase + 3, 1)).ok());
  EXPECT_TRUE(ingestor->Checkpoint().ok());
  uint64_t length = kWindowBase + 4;
  for (int i = 0; i < commits; ++i) {
    const Status appended =
        ingestor->Append(Slice(WindowStream(), length, kWindowBatches[i]));
    EXPECT_TRUE(appended.ok()) << appended.ToString();
    if (!appended.ok()) return 0;
    length += kWindowBatches[i];
  }
  EXPECT_EQ(ingestor->stats().checkpoints, 1u);
  return length;
}

// A crash after the first, a middle and the last commit of a window, with
// every unsynced write lost and with half of them kept.
TEST(IngestCrashModelTest, CrashAfterFirstMiddleOrLastCommitOfAWindow) {
  for (double keep : {0.0, 0.5}) {
    for (int commits : {1, 3, 5}) {
      const std::string tag = "keep" + std::to_string(keep > 0) + "_after" +
                              std::to_string(commits);
      SCOPED_TRACE(tag);
      test::ScratchDir scratch("ingest_window_" + tag);
      Caldera system(scratch.Path("archive"));
      ASSERT_TRUE(system.archive()->Init().ok());
      ArchiveWindowStream(&system, "s", kWindowBase);
      const std::string dir = system.archive()->StreamDir("s");
      uint64_t acknowledged = 0;
      {
        FaultInjectionOptions options;
        options.crash_keep_prob = keep;
        options.seed = 90 + commits;
        ScopedFaultInjection disk(dir, options);
        auto ingestor = StreamIngestor::Open(dir);
        ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
        acknowledged = RunWindow(ingestor->get(), commits);
        ASSERT_GT(acknowledged, 0u);
        disk.Crash();
      }
      {
        auto recovered = StreamIngestor::Open(dir);
        ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
        EXPECT_EQ((*recovered)->stats().batches_recovered,
                  static_cast<uint64_t>(commits));
      }
      ExpectRecoversTo(&system, "s", acknowledged);
    }
  }
}

// Sync calls through the stream's files before and after the checkpoint
// that closes a five-commit window, on a clean run.
std::pair<int64_t, int64_t> WindowCheckpointSyncs() {
  test::ScratchDir scratch("ingest_ckpt_count");
  Caldera system(scratch.Path("archive"));
  EXPECT_TRUE(system.archive()->Init().ok());
  ArchiveWindowStream(&system, "s", kWindowBase);
  const std::string dir = system.archive()->StreamDir("s");
  ScopedFaultInjection disk(dir, {});
  auto ingestor = StreamIngestor::Open(dir);
  EXPECT_TRUE(ingestor.ok());
  if (!ingestor.ok()) return {0, 0};
  EXPECT_GT(RunWindow(ingestor->get(), 5), 0u);
  const auto before = static_cast<int64_t>(disk.counters().syncs);
  EXPECT_EQ(before, static_cast<int64_t>((*ingestor)->stats().fsyncs));
  EXPECT_TRUE((*ingestor)->Checkpoint().ok());
  return {before, static_cast<int64_t>(disk.counters().syncs)};
}

// A crash inside a checkpoint, after each number of its fsyncs in turn:
// some files synced, the rest and the WAL reset not.
TEST(IngestCrashModelTest, CrashInsideACheckpoint) {
  const auto [before, after] = WindowCheckpointSyncs();
  // At least meta.bin, the stream files, mc.meta, one MC level and the WAL
  // reset. The window is too short for a compaction.
  ASSERT_GE(after - before, 8);
  for (int64_t synced = 0; synced < after - before; ++synced) {
    SCOPED_TRACE(synced);
    test::ScratchDir scratch("ingest_ckpt_crash");
    Caldera system(scratch.Path("archive"));
    ASSERT_TRUE(system.archive()->Init().ok());
    ArchiveWindowStream(&system, "s", kWindowBase);
    const std::string dir = system.archive()->StreamDir("s");
    uint64_t acknowledged = 0;
    {
      FaultInjectionOptions options;
      options.crash_at_sync = before + synced;
      options.crash_keep_prob = 0.5;
      options.seed = 100 + synced;
      ScopedFaultInjection disk(dir, options);
      auto ingestor = StreamIngestor::Open(dir);
      ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
      acknowledged = RunWindow(ingestor->get(), 5);
      ASSERT_GT(acknowledged, 0u);
      EXPECT_FALSE((*ingestor)->Checkpoint().ok());
      EXPECT_TRUE(disk.crashed());
      EXPECT_TRUE((*ingestor)->broken());
    }
    ExpectRecoversTo(&system, "s", acknowledged);
  }
}

// A crash during recovery: at the Nth write (restoring undo records or
// redoing the window), at the Nth fsync (the checkpoint closing the
// recovery), and right after a recovery that returned. The recovered state
// must survive each, so the WAL may be reset only once everything it
// rebuilt is synced.
TEST(IngestCrashModelTest, CrashDuringRecovery) {
  struct Cell {
    bool at_write;
    int64_t index;
  };
  std::vector<Cell> cells;
  for (int64_t n = 0; n <= 4096; n = n == 0 ? 1 : n * 4) {
    cells.push_back({true, n});
  }
  for (int64_t n = 0; n < 24; ++n) cells.push_back({false, n});
  for (const Cell& cell : cells) {
    const std::string tag = std::string(cell.at_write ? "write" : "sync") +
                            std::to_string(cell.index);
    SCOPED_TRACE(tag);
    test::ScratchDir scratch("ingest_recovery_crash");
    Caldera system(scratch.Path("archive"));
    ASSERT_TRUE(system.archive()->Init().ok());
    ArchiveWindowStream(&system, "s", kWindowBase);
    const std::string dir = system.archive()->StreamDir("s");
    uint64_t acknowledged = 0;
    {
      ScopedFaultInjection disk(dir, {});
      auto ingestor = StreamIngestor::Open(dir);
      ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
      acknowledged = RunWindow(ingestor->get(), 4);
      ASSERT_GT(acknowledged, 0u);
      disk.Crash();
    }
    {
      FaultInjectionOptions options;
      (cell.at_write ? options.crash_at_write : options.crash_at_sync) =
          cell.index;
      options.crash_keep_prob = 0.5;
      options.seed = 200 + cell.index;
      ScopedFaultInjection disk(dir, options);
      auto ingestor = StreamIngestor::Open(dir);
      EXPECT_EQ(ingestor.ok(), !disk.crashed());
      // Recovery finished before the armed crash: crash right after it.
      if (!disk.crashed()) disk.Crash();
    }
    ExpectRecoversTo(&system, "s", acknowledged);
  }
}

// A commit whose WAL fsync fails is rolled back, its first touches too: it
// is the first of the window to grow MC level 4, so the retried commit
// must journal that level again. A crash that keeps every unsynced write
// then leaves level 4 grown, and only its undo records can restore it.
TEST(IngestCrashModelTest, FailedWalSyncRollsBackFirstTouches) {
  test::ScratchDir scratch("ingest_sync_rollback");
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ArchiveWindowStream(&system, "s", kWindowBase);
  const std::string dir = system.archive()->StreamDir("s");
  constexpr uint32_t kLevel = 4;
  const McIndexOptions mc{.alpha = 2};
  ASSERT_GE(McIndex::LevelCounts(kWindowBase, mc).size(), kLevel);
  // The first batch-1 commit from kWindowBase that grows level kLevel.
  int64_t first_touch = 1;
  while (McIndex::LevelCounts(kWindowBase + first_touch, mc)[kLevel - 1] ==
         McIndex::LevelCounts(kWindowBase, mc)[kLevel - 1]) {
    ++first_touch;
  }
  ASSERT_GT(first_touch, 1);
  uint64_t length = kWindowBase;
  {
    FaultInjectionOptions options;
    // Each commit fsyncs once; opening an ingestor over an empty WAL
    // fsyncs nothing.
    options.fail_sync_at = first_touch - 1;
    options.crash_keep_prob = 1.0;
    ScopedFaultInjection disk(dir, options);
    auto ingestor = StreamIngestor::Open(dir);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    for (; length < kWindowBase + first_touch - 1; ++length) {
      ASSERT_TRUE((*ingestor)->Append(Slice(WindowStream(), length, 1)).ok());
    }
    const uint64_t wal_bytes = (*ingestor)->stats().wal_bytes;
    EXPECT_EQ((*ingestor)->Append(Slice(WindowStream(), length, 1)).code(),
              StatusCode::kIoError);
    EXPECT_FALSE((*ingestor)->broken());
    EXPECT_EQ((*ingestor)->length(), length);
    EXPECT_EQ((*ingestor)->stats().wal_bytes, wal_bytes);
    for (const uint64_t end = length + 4; length < end; ++length) {
      ASSERT_TRUE((*ingestor)->Append(Slice(WindowStream(), length, 1)).ok());
    }
    disk.Crash();
  }
  ExpectRecoversTo(&system, "s", length);
}

// Batch-1 commits cost one fsync each; the checkpoint then syncs each
// touched file once. Undo records are journaled on a file's first touch
// in the window, so they stop growing once every file has been touched.
TEST(IngestCheckpointTest, OneFsyncPerCommitAndFirstTouchUndo) {
  test::ScratchDir scratch("ingest_fsyncs");
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ArchiveWindowStream(&system, "s", kWindowBase);
  auto ingestor = StreamIngestor::Open(system.archive()->StreamDir("s"));
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  constexpr uint64_t kCommits = 64;
  uint64_t undo_after_first = 0;
  for (uint64_t i = 0; i < kCommits; ++i) {
    ASSERT_TRUE(
        (*ingestor)->Append(Slice(WindowStream(), kWindowBase + i, 1)).ok());
    if (i == 0) undo_after_first = (*ingestor)->stats().undo_bytes;
  }
  const IngestStats& stats = (*ingestor)->stats();
  EXPECT_EQ(stats.fsyncs, kCommits);
  EXPECT_EQ(stats.checkpoints, 0u);
  EXPECT_GT(undo_after_first, 0u);
  EXPECT_LT(stats.undo_bytes, stats.wal_bytes);
  // Later commits journal only the MC levels they are the first to grow:
  // the first commit's records (stream files, metadata, low levels) are
  // most of the window's.
  EXPECT_LT(stats.undo_bytes, 3 * undo_after_first);
  ASSERT_TRUE((*ingestor)->Checkpoint().ok());
  EXPECT_EQ(stats.checkpoints, 1u);
  // The MC levels the window grew or added, two files each.
  const McIndexOptions mc{.alpha = 2};
  const std::vector<uint64_t> before = McIndex::LevelCounts(kWindowBase, mc);
  const std::vector<uint64_t> after =
      McIndex::LevelCounts(kWindowBase + kCommits, mc);
  uint64_t levels = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    levels += i >= before.size() || after[i] != before[i];
  }
  // meta.bin, two stream record files of two files each, mc.meta, the
  // levels and the WAL reset; then the 64 appended timesteps pass 1/8 of
  // the 200 both trees index, so each is compacted: its new file and the
  // directory.
  EXPECT_EQ(stats.fsyncs - kCommits, 1 + 4 + 1 + 2 * levels + 1 + 2 * 2);
  // A second checkpoint with nothing committed is free.
  ASSERT_TRUE((*ingestor)->Checkpoint().ok());
  EXPECT_EQ(stats.checkpoints, 1u);
  ingestor->reset();
  ExpectRecoversTo(&system, "s", kWindowBase + kCommits);
}

// The log passing kCheckpointWalBytes runs a checkpoint inside the commit:
// the WAL empties, and a crash after it redoes only the later commits.
TEST(IngestCheckpointTest, LogThresholdRunsACheckpoint) {
  test::ScratchDir scratch("ingest_auto_ckpt");
  const MarkovianStream full = test::MakeBandedStream(6000, 24, 85);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ASSERT_TRUE(system.archive()->CreateStream("s", Prefix(full, 100)).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildMc("s", {.alpha = 2}).ok());
  const std::string dir = system.archive()->StreamDir("s");
  constexpr uint64_t kBatch = 200;
  uint64_t length = 100;
  {
    ScopedFaultInjection disk(dir, {});
    auto ingestor = StreamIngestor::Open(dir);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    while ((*ingestor)->stats().checkpoints == 0) {
      ASSERT_LE(length + 2 * kBatch, full.length()) << "no checkpoint ran";
      ASSERT_TRUE((*ingestor)->Append(Slice(full, length, kBatch)).ok());
      length += kBatch;
    }
    auto wal = File::OpenReadOnly(StreamIngestor::WalPath(dir));
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ((*wal)->size(), 8u);  // The magic alone.
    ASSERT_TRUE((*ingestor)->Append(Slice(full, length, kBatch)).ok());
    length += kBatch;
    disk.Crash();
  }
  auto recovered = StreamIngestor::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->length(), length);
  EXPECT_EQ((*recovered)->stats().batches_recovered, 1u);
  recovered->reset();
  ASSERT_TRUE(system.archive()->CreateStream("oracle", Prefix(full, length))
                  .ok());
  ASSERT_TRUE(system.archive()->BuildBtc("oracle", 0).ok());
  ASSERT_TRUE(system.archive()->BuildMc("oracle", {.alpha = 2}).ok());
  ExpectMcLevelsIdentical(system.archive()->StreamDir("oracle"), dir);
  for (AccessMethodKind method :
       {AccessMethodKind::kScan, AccessMethodKind::kBTree,
        AccessMethodKind::kMcIndex}) {
    auto got = system.Execute("s", FixedQuery(), {.method = method});
    auto want = system.Execute("oracle", FixedQuery(), {.method = method});
    ASSERT_TRUE(got.ok() && want.ok()) << AccessMethodName(method);
    ExpectSignalsIdentical(got->signal, want->signal,
                           AccessMethodName(method));
  }
}

// Replay is idempotent: a committed-but-unapplied batch is applied exactly
// once no matter how many times the stream is reopened.
TEST(IngestRecoveryTest, ReplayIsIdempotentAcrossReopens) {
  test::ScratchDir scratch("ingest_idem");
  MarkovianStream full = test::MakeBandedStream(180, 8, 29);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 150)).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(archive.BuildBtp("s", 0).ok());
  ASSERT_TRUE(archive.BuildMc("s", {.alpha = 2}).ok());
  const std::string dir = archive.StreamDir("s");

  {
    auto ingestor = StreamIngestor::Open(dir);
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->CommitWithoutApply(Slice(full, 150, 30)).ok());
  }
  {
    auto first = StreamIngestor::Open(dir);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_EQ((*first)->length(), 180u);
    EXPECT_EQ((*first)->stats().batches_recovered, 1u);
  }
  auto second = StreamIngestor::Open(dir);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->length(), 180u);
  EXPECT_EQ((*second)->stats().batches_recovered, 0u);
  second->reset();

  ASSERT_TRUE(archive.CreateStream("oracle", full).ok());
  ASSERT_TRUE(archive.BuildBtc("oracle", 0).ok());
  auto live = archive.OpenStream("s");
  auto oracle = archive.OpenStream("oracle");
  ASSERT_TRUE(live.ok() && oracle.ok());
  auto want = RunPipeline(oracle->get(), FixedQuery(),
                          AccessMethodKind::kBTree);
  auto got = RunPipeline(live->get(), FixedQuery(), AccessMethodKind::kBTree);
  ASSERT_TRUE(want.ok() && got.ok());
  ExpectSignalsIdentical(got->signal, want->signal, "idempotent-replay");
}

// Incremental MC maintenance touches only the right spine: a one-timestep
// append recomputes at most one node per level, i.e. O(log n) nodes, and
// the grown index is entry-for-entry byte-identical to a full rebuild.
TEST(IngestMcMaintenanceTest, SingleAppendRecomputesLogNodes) {
  test::ScratchDir scratch("ingest_mclog");
  const uint64_t full_len = 400;
  MarkovianStream full = test::MakeBandedStream(full_len, 6, 31);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 64)).ok());
  ASSERT_TRUE(archive.BuildMc("s", {.alpha = 2}).ok());

  auto ingestor = StreamIngestor::Open(archive.StreamDir("s"));
  ASSERT_TRUE(ingestor.ok());
  uint64_t prev_nodes = 0;
  for (uint64_t t = 64; t < full_len; ++t) {
    ASSERT_TRUE((*ingestor)->Append(Slice(full, t, 1)).ok()) << "t=" << t;
    const uint64_t delta = (*ingestor)->stats().mc.nodes_recomputed -
                           prev_nodes;
    prev_nodes = (*ingestor)->stats().mc.nodes_recomputed;
    // With alpha=2 at most one block completes per level: delta <=
    // floor(log2(num_transitions)) per append.
    uint64_t bound = 0;
    for (uint64_t n = t; n > 1; n /= 2) ++bound;
    EXPECT_LE(delta, bound) << "t=" << t;
  }
  ingestor->reset();

  ASSERT_TRUE(archive.CreateStream("oracle", full).ok());
  ASSERT_TRUE(archive.BuildMc("oracle", {.alpha = 2}).ok());
  ExpectMcLevelsIdentical(archive.StreamDir("oracle"),
                          archive.StreamDir("s"));
}

// Snapshot consistency: a query racing a concurrent ingest observes the
// stream at some batch boundary — bit-identical to one of the precomputed
// per-boundary oracles, never a mix of old and new timesteps. Runs under
// the TSan CI job, which additionally checks the locking for races.
TEST(IngestConcurrencyTest, QueriesSeeBatchBoundarySnapshotsOnly) {
  test::ScratchDir scratch("ingest_race");
  const uint64_t base_len = 100;
  const uint64_t batch_size = 10;
  const size_t num_batches = 5;
  MarkovianStream full =
      test::MakeBandedStream(base_len + num_batches * batch_size, 8, 37);

  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  // One offline oracle per reachable boundary length, plus the live stream.
  std::vector<std::string> boundary_names;
  for (size_t i = 0; i <= num_batches; ++i) {
    const uint64_t len = base_len + i * batch_size;
    std::string name = "o";
    name += std::to_string(len);
    boundary_names.push_back(name);
    ASSERT_TRUE(
        system.archive()->CreateStream(name, Prefix(full, len)).ok());
    ASSERT_TRUE(system.archive()->BuildBtc(name, 0).ok());
    ASSERT_TRUE(system.archive()->BuildMc(name, {.alpha = 2}).ok());
  }
  ASSERT_TRUE(
      system.archive()->CreateStream("live", Prefix(full, base_len)).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("live", 0).ok());
  ASSERT_TRUE(system.archive()->BuildMc("live", {.alpha = 2}).ok());

  const RegularQuery query = FixedQuery();
  const AccessMethodKind methods[] = {AccessMethodKind::kBTree,
                                      AccessMethodKind::kMcIndex};
  // Oracle signals per (boundary, method).
  std::vector<std::vector<QuerySignal>> oracles(boundary_names.size());
  for (size_t i = 0; i < boundary_names.size(); ++i) {
    for (AccessMethodKind method : methods) {
      auto r = system.Execute(boundary_names[i], query,
                              ExecOptions{.method = method});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      oracles[i].push_back(r->signal);
    }
  }
  auto is_boundary_signal = [&](const QuerySignal& signal,
                                size_t method_idx) {
    for (const auto& per_boundary : oracles) {
      if (SignalsEqual(signal, per_boundary[method_idx])) return true;
    }
    return false;
  };

  std::atomic<bool> ingest_done{false};
  std::atomic<int> torn_reads{0};
  std::string reader_error;  // First failure, written once before the flag.
  std::thread reader([&] {
    size_t method_idx = 0;
    int iterations = 0;
    while (!ingest_done.load(std::memory_order_acquire) || iterations < 20) {
      auto r = system.Execute(
          "live", query, ExecOptions{.method = methods[method_idx]});
      if (!r.ok() || !is_boundary_signal(r->signal, method_idx)) {
        if (torn_reads.load() == 0) {
          reader_error = r.ok() ? "non-boundary signal"
                                : r.status().ToString();
        }
        torn_reads.fetch_add(1);
      }
      method_idx = 1 - method_idx;
      ++iterations;
      if (iterations > 2000) break;  // Safety valve.
    }
  });
  std::string writer_error;
  std::atomic<bool> writer_failed{false};
  std::thread writer([&] {
    auto ingestor = system.OpenForIngest("live");
    if (!ingestor.ok()) {
      writer_error = ingestor.status().ToString();
      writer_failed.store(true);
      ingest_done.store(true, std::memory_order_release);
      return;
    }
    for (size_t i = 0; i < num_batches; ++i) {
      Status appended =
          (*ingestor)->Append(Slice(full, base_len + i * batch_size,
                                    batch_size));
      // A checkpoint inside the window: 20 appended timesteps pass 1/8 of
      // the 100 the BT_C indexes, so it is compacted under the readers.
      if (appended.ok() && i == 1) appended = (*ingestor)->Checkpoint();
      if (appended.ok() && i == 1 && (*ingestor)->stats().btree_inserts == 0) {
        appended = Status::Internal("the checkpoint compacted no tree");
      }
      if (!appended.ok()) {
        writer_error = appended.ToString();
        writer_failed.store(true);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ingest_done.store(true, std::memory_order_release);
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(writer_failed.load()) << writer_error;
  EXPECT_EQ(torn_reads.load(), 0) << reader_error;
  // After the dust settles the live stream equals the final oracle.
  auto final_live =
      system.Execute("live", query, ExecOptions{.method = methods[0]});
  ASSERT_TRUE(final_live.ok());
  ExpectSignalsIdentical(final_live->signal, oracles.back()[0], "final");
}

// Many threads query one stream at once: Execute per method, Plan, and an
// ExecuteBatch naming the stream three times. First no writer runs, then a
// writer appends batches. Every query runs on its own lent handle, so
// every signal is some batch boundary's oracle signal, and with no writer
// each query fetches exactly the pages the sequential run fetched.
TEST(IngestConcurrencyTest, ManyReadersOnOneStreamMatchOracles) {
  test::ScratchDir scratch("ingest_readers");
  const uint64_t base_len = 100;
  const uint64_t batch_size = 10;
  const size_t num_batches = 4;
  MarkovianStream full =
      test::MakeBandedStream(base_len + num_batches * batch_size, 8, 41);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());

  const RegularQuery query = FixedQuery();
  constexpr size_t kMethods = 3;
  const AccessMethodKind methods[kMethods] = {AccessMethodKind::kScan,
                                              AccessMethodKind::kBTree,
                                              AccessMethodKind::kMcIndex};
  // Small pools, so concurrent users of one handle would race on eviction.
  auto options_for = [&](size_t m) {
    return ExecOptions{.method = methods[m], .pool_pages = 8};
  };
  auto archive_with_indexes = [&](const std::string& name, uint64_t len) {
    ASSERT_TRUE(system.archive()->CreateStream(name, Prefix(full, len)).ok());
    ASSERT_TRUE(system.archive()->BuildBtc(name, 0).ok());
    ASSERT_TRUE(system.archive()->BuildMc(name, {.alpha = 2}).ok());
  };
  // oracles[b][m]: method m's signal on an offline archive of boundary b.
  std::vector<std::vector<QuerySignal>> oracles(num_batches + 1);
  for (size_t b = 0; b <= num_batches; ++b) {
    const std::string name = "o" + std::to_string(b);
    archive_with_indexes(name, base_len + b * batch_size);
    for (size_t m = 0; m < kMethods; ++m) {
      auto r = system.Execute(name, query, options_for(m));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      oracles[b].push_back(r->signal);
    }
  }
  archive_with_indexes("live", base_len);

  // The sequential reference. Its second pass runs on handles that are
  // warm, as every later query's may be; the fixed query composes no
  // spans, so only the buffer pools warm up.
  ExecStats reference[kMethods];
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t m = 0; m < kMethods; ++m) {
      auto r = system.Execute("live", query, options_for(m));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ExpectSignalsIdentical(r->signal, oracles[0][m], "sequential");
      reference[m] = r->stats;
    }
  }

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(what);
  };
  auto check = [&](size_t m, const QueryResult& r, bool writer_idle) {
    const std::string tag = AccessMethodName(methods[m]);
    bool at_boundary = false;
    for (size_t b = 0; b < oracles.size() && !at_boundary; ++b) {
      at_boundary = SignalsEqual(r.signal, oracles[b][m]);
    }
    if (!at_boundary) fail(tag + ": signal matches no batch boundary");
    if (writer_idle &&
        (r.stats.stream_io.fetches != reference[m].stream_io.fetches ||
         r.stats.index_io.fetches != reference[m].index_io.fetches)) {
      fail(tag + ": page fetches differ from the sequential run");
    }
  };
  // One reader: at least `min_rounds` rounds, then on until `stop`.
  auto reader = [&](size_t seed, int min_rounds, bool writer_idle,
                    const std::atomic<bool>* stop) {
    for (int round = 0; round < min_rounds || !stop->load(); ++round) {
      if (round > 2000) break;  // Safety valve.
      const size_t m = (seed + round) % kMethods;
      auto single = system.Execute("live", query, options_for(m));
      if (single.ok()) {
        check(m, *single, writer_idle);
      } else {
        fail("Execute: " + single.status().ToString());
      }
      auto plan = system.Plan("live", query, ExecOptions{.pool_pages = 8});
      if (!plan.ok()) fail("Plan: " + plan.status().ToString());
      BatchOptions batch_options;
      batch_options.exec = options_for(m);
      batch_options.streams = {"live", "live", "live"};
      batch_options.num_threads = 3;
      auto batch = ExecuteBatch(&system, query, batch_options);
      if (!batch.ok()) {
        fail("ExecuteBatch: " + batch.status().ToString());
        continue;
      }
      for (const BatchStreamResult& s : batch->streams) {
        check(m, s.result, writer_idle);
      }
    }
  };
  constexpr size_t kReaders = 4;

  // Phase 1: readers only.
  const std::atomic<bool> no_writer{true};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back(reader, t, 12, /*writer_idle=*/true, &no_writer);
  }
  for (std::thread& t : readers) t.join();
  readers.clear();

  // Phase 2: the same readers alongside a live writer.
  std::atomic<bool> ingest_done{false};
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back(reader, t, 3, /*writer_idle=*/false, &ingest_done);
  }
  Status writer_status = Status::Ok();
  {
    auto ingestor = system.OpenForIngest("live");
    writer_status = ingestor.status();
    for (size_t i = 0; i < num_batches && writer_status.ok(); ++i) {
      writer_status = (*ingestor)->Append(
          Slice(full, base_len + i * batch_size, batch_size));
      // A checkpoint inside the window, which compacts the BT_C (20
      // appended timesteps pass 1/8 of 100) while the readers run.
      if (writer_status.ok() && i == 1) {
        writer_status = (*ingestor)->Checkpoint();
        if ((*ingestor)->stats().btree_inserts == 0) {
          writer_status = Status::Internal("the checkpoint compacted no tree");
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ingest_done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_TRUE(writer_status.ok()) << writer_status.ToString();
  EXPECT_TRUE(failures.empty())
      << failures.size() << " failures; first: " << failures.front();
  for (size_t m = 0; m < kMethods; ++m) {
    auto final_live = system.Execute("live", query, options_for(m));
    ASSERT_TRUE(final_live.ok());
    ExpectSignalsIdentical(final_live->signal, oracles.back()[m], "final");
  }
}

// Commits make progress while three scans loop on the stream: a query
// holds the stream lock only while it borrows its handle, so a commit waits
// for a borrow, never for a whole query. A watchdog turns a starved commit
// into a failure instead of a hung test.
TEST(IngestConcurrencyTest, CommitsProgressUnderConcurrentScans) {
  test::ScratchDir scratch("ingest_starve");
  const uint64_t base_len = 2000;
  constexpr size_t kCommits = 20;
  constexpr int kReaders = 3;
  constexpr auto kDeadline = std::chrono::seconds(60);
  MarkovianStream full = test::MakeBandedStream(base_len + kCommits, 8, 47);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ASSERT_TRUE(
      system.archive()->CreateStream("live", Prefix(full, base_len)).ok());
  auto ingestor = system.OpenForIngest("live");
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();

  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(done_mu);
    if (!done_cv.wait_for(lock, kDeadline, [&] { return done; })) {
      std::fprintf(stderr,
                   "CommitsProgressUnderConcurrentScans: %zu one-step commits "
                   "did not finish within 60 s under %d concurrent scans\n",
                   kCommits, kReaders);
      std::_Exit(1);
    }
  });

  const RegularQuery query = FixedQuery();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        auto result = system.Execute(
            "live", query, ExecOptions{.method = AccessMethodKind::kScan});
        if (!result.ok()) failures.fetch_add(1);
        queries.fetch_add(1);
      }
    });
  }
  // Let the scans get going, so the commits meet them.
  while (queries.load() < kReaders) std::this_thread::yield();
  Status status = Status::Ok();
  for (size_t i = 0; i < kCommits && status.ok(); ++i) {
    status = (*ingestor)->Append(Slice(full, base_len + i, 1));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  {
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
  }
  done_cv.notify_one();
  watchdog.join();

  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ((*ingestor)->length(), base_len + kCommits);
  auto next = system.GetStream("live");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ((*next)->length(), base_len + kCommits);
}

// Holds the query thread's first read of one page of one file until a
// write has replaced that page, and holds that write until the read is
// done: a query reads the page exactly in the gap the write opens.
struct PageGate {
  std::string path_suffix;
  uint64_t offset = 0;
  std::mutex mu;
  std::condition_variable cv;
  std::thread::id reader;
  bool reader_waiting = false;
  bool written = false;
  bool read_done = false;
};

class GatedFile final : public File {
 public:
  GatedFile(std::unique_ptr<File> base, PageGate* gate)
      : base_(std::move(base)), gate_(gate) {}

  Status ReadAt(uint64_t offset, size_t n, char* buf) const override {
    if (!Gated(offset)) return base_->ReadAt(offset, n, buf);
    std::unique_lock<std::mutex> lock(gate_->mu);
    if (std::this_thread::get_id() != gate_->reader || gate_->read_done) {
      lock.unlock();
      return base_->ReadAt(offset, n, buf);
    }
    gate_->reader_waiting = true;
    gate_->cv.notify_all();
    gate_->cv.wait_for(lock, std::chrono::seconds(30),
                       [&] { return gate_->written; });
    Status read = base_->ReadAt(offset, n, buf);
    gate_->read_done = true;
    gate_->cv.notify_all();
    return read;
  }
  Status WriteAt(uint64_t offset, std::string_view data) override {
    CALDERA_RETURN_IF_ERROR(base_->WriteAt(offset, data));
    if (!Gated(offset)) return Status::Ok();
    std::unique_lock<std::mutex> lock(gate_->mu);
    if (gate_->written) return Status::Ok();
    gate_->written = true;
    gate_->cv.notify_all();
    gate_->cv.wait_for(lock, std::chrono::seconds(30),
                       [&] { return gate_->read_done; });
    return Status::Ok();
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override { return base_->Sync(); }
  uint64_t size() const override { return base_->size(); }
  Status RefreshSize() override { return base_->RefreshSize(); }
  const std::string& path() const override { return base_->path(); }

 private:
  bool Gated(uint64_t offset) const {
    const std::string& p = base_->path();
    const std::string& suffix = gate_->path_suffix;
    return offset == gate_->offset && p.size() >= suffix.size() &&
           p.compare(p.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  std::unique_ptr<File> base_;
  PageGate* gate_;
};

// A recovering open restores each record file's checkpoint-time tail page
// before it redoes the window, and a handle past the checkpoint reads that
// page as a full one. A scan whose read of it lands in that gap gets the
// checkpoint's bytes; Execute must still answer as the recovered stream
// does, and no handle that cached those bytes may be lent again.
TEST(IngestConcurrencyTest, QueryOverlappingARecoveryMatchesTheRecoveredStream) {
  test::ScratchDir scratch("ingest_recovery_gap");
  const uint64_t checkpoint_len = 300;
  MarkovianStream full =
      test::MakeBandedStream(checkpoint_len + 101, 8, 48);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ASSERT_TRUE(system.archive()
                  ->CreateStream("live", Prefix(full, checkpoint_len))
                  .ok());
  ASSERT_TRUE(system.archive()->CreateStream("oracle", full).ok());
  const RegularQuery query = FixedQuery();
  const ExecOptions scan{.method = AccessMethodKind::kScan};
  auto want = system.Execute("oracle", query, scan);
  ASSERT_TRUE(want.ok());

  // The partial tail page of the CPTs (what a scan reads) at the
  // checkpoint, which the window below fills and the recovery restores.
  const std::string cpts = system.archive()->StreamDir("live") + "/cpts.rec";
  auto at_checkpoint = RecordFileAppendRegions(cpts);
  ASSERT_TRUE(at_checkpoint.ok());
  ASSERT_EQ((*at_checkpoint)[0].overwritten.size(), 3u);  // Header, tail, meta.
  const auto [tail_offset, tail_len] = (*at_checkpoint)[0].overwritten[1];

  {
    auto ingestor = system.OpenForIngest("live");
    ASSERT_TRUE(ingestor.ok());
    ASSERT_TRUE((*ingestor)->Append(Slice(full, checkpoint_len, 100)).ok());
    ASSERT_TRUE(
        (*ingestor)->CommitWithoutApply(Slice(full, checkpoint_len + 100, 1))
            .ok());
  }
  auto after_window = RecordFileAppendRegions(cpts);
  ASSERT_TRUE(after_window.ok());
  ASSERT_GT((*after_window)[0].size, tail_offset + tail_len);

  PageGate gate;
  gate.path_suffix = "/live/cpts.rec";
  gate.offset = tail_offset;
  File::SetWrapHookForTesting([&gate](std::unique_ptr<File> file) {
    return std::unique_ptr<File>(new GatedFile(std::move(file), &gate));
  });
  struct Unhook {
    ~Unhook() { File::SetWrapHookForTesting(nullptr); }
  } unhook;

  Result<QueryResult> overlapped = Status::Internal("not run");
  std::thread reader([&] {
    {
      std::lock_guard<std::mutex> lock(gate.mu);
      gate.reader = std::this_thread::get_id();
    }
    overlapped = system.Execute("live", query, scan);
  });
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    EXPECT_TRUE(gate.cv.wait_for(lock, std::chrono::seconds(30),
                                 [&] { return gate.reader_waiting; }));
  }
  auto reopened = system.OpenForIngest("live");
  reader.join();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->stats().batches_recovered, 2u);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    EXPECT_TRUE(gate.read_done);  // The read did land in the gap.
  }
  auto next = system.Execute("live", query, scan);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ExpectSignalsIdentical(next->signal, want->signal, "after recovery");
  ASSERT_TRUE(overlapped.ok()) << overlapped.status().ToString();
  ExpectSignalsIdentical(overlapped->signal, want->signal, "overlapped");
}

// A commit is visible to later queries with no manual InvalidateStreams
// and bumps no epoch, while a handle lent before the commit keeps serving
// its snapshot.
TEST(IngestFacadeTest, CommitsAreVisibleWithoutManualInvalidation) {
  test::ScratchDir scratch("ingest_epoch");
  MarkovianStream full = test::MakeBandedStream(140, 8, 43);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ASSERT_TRUE(
      system.archive()->CreateStream("live", Prefix(full, 100)).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("live", 0).ok());
  ASSERT_TRUE(system.archive()->CreateStream("oracle", full).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("oracle", 0).ok());

  const RegularQuery query = FixedQuery();
  const ExecOptions options{.method = AccessMethodKind::kBTree};
  // Leave an idle handle at length 100 and hold a pre-commit handle.
  auto before = system.Execute("live", query, options);
  ASSERT_TRUE(before.ok());
  auto snapshot = system.GetStream("live");
  ASSERT_TRUE(snapshot.ok());
  const uint64_t epoch_before = system.stream_epoch();

  auto ingestor = system.OpenForIngest("live");
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE((*ingestor)->Append(Slice(full, 100, 40)).ok());
  EXPECT_EQ(system.stream_epoch(), epoch_before);

  auto after = system.Execute("live", query, options);
  auto want = system.Execute("oracle", query, options);
  ASSERT_TRUE(after.ok() && want.ok());
  ExpectSignalsIdentical(after->signal, want->signal, "post-commit");
  // The pre-commit handle still sees the old stream (snapshot semantics).
  EXPECT_EQ((*snapshot)->length(), 100u);
  auto old_view = RunPipeline(snapshot->get(), query, AccessMethodKind::kScan);
  ASSERT_TRUE(old_view.ok());
  auto old_oracle = system.Execute(
      "live", query, ExecOptions{.method = AccessMethodKind::kScan});
  ASSERT_TRUE(old_oracle.ok());
  // Old handle: 100 timesteps; fresh execute: 140. Sizes must differ only
  // by the appended suffix — check the shared prefix is untouched.
  for (size_t i = 0; i < old_view->signal.size(); ++i) {
    ASSERT_LT(i, old_oracle->signal.size());
    EXPECT_EQ(old_view->signal[i].time, old_oracle->signal[i].time);
    EXPECT_EQ(old_view->signal[i].prob, old_oracle->signal[i].prob);
  }
  // Released, the snapshot finds the idle slot taken and is dropped: the
  // next handle has the new length.
  snapshot->reset();
  for (int i = 0; i < 2; ++i) {
    auto next = system.GetStream("live");
    ASSERT_TRUE(next.ok());
    EXPECT_EQ((*next)->length(), 140u);
  }
}

// A commit advances the idle handle instead of dropping it: the handle the
// next query borrows is the same object at the new length (its pools keep
// the previous query's traffic, which a reopen would not), and its MC
// query composes no span: it finds every one it needs among those composed
// before the commit. The warm answer is bit-identical to a cold one on an
// archive built offline at the same length, including across the appends
// 64 -> 65 (alpha = 2 adds a level) and 65 -> 66.
TEST(IngestFacadeTest, CommitRefreshesIdleHandlesAndKeepsSpans) {
  test::ScratchDir scratch("ingest_refresh");
  // A sparse snippet stream, so the MC query composes spans.
  auto workload = MakeSnippetStream(
      {.num_snippets = 4, .density = 0.5, .match_rate = 0.5, .seed = 1});
  ASSERT_TRUE(workload.ok());
  const MarkovianStream& full = workload->stream;
  ASSERT_GE(full.length(), 66u);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  auto archive_stream = [&](const std::string& name, uint64_t length) {
    ASSERT_TRUE(system.archive()->CreateStream(name, Prefix(full, length)).ok());
    ASSERT_TRUE(system.archive()->BuildBtc(name, 0).ok());
    ASSERT_TRUE(system.archive()->BuildBtp(name, 0).ok());
    ASSERT_TRUE(system.archive()->BuildMc(name, {.alpha = 2}).ok());
  };
  archive_stream("live", 62);
  auto ingestor = system.OpenForIngest("live");
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  const uint64_t epoch = system.stream_epoch();
  const ExecOptions mc{.method = AccessMethodKind::kMcIndex};
  const RegularQuery variable = workload->EnteredRoomVariable();
  const RegularQuery fixed = workload->EnteredRoomFixed();
  auto first = system.Execute("live", variable, mc);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(first->stats.span_cache_misses, 0u);
  for (uint64_t length = 63; length <= 66; ++length) {
    SCOPED_TRACE(length);
    const ArchivedStream* before = nullptr;
    uint32_t levels_before = 0;
    {
      auto idle = system.GetStream("live");
      ASSERT_TRUE(idle.ok());
      before = idle->get();
      levels_before = (*idle)->mc()->num_levels();
    }
    ASSERT_TRUE((*ingestor)->Append(Slice(full, length - 1, 1)).ok());
    {
      auto refreshed = system.GetStream("live");
      ASSERT_TRUE(refreshed.ok());
      EXPECT_EQ(refreshed->get(), before);
      EXPECT_EQ((*refreshed)->length(), length);
      EXPECT_GT((*refreshed)->stream()->IoStats().fetches, 0u);
      EXPECT_EQ((*refreshed)->mc()->num_levels(),
                levels_before + (length == 65 ? 1 : 0));
    }
    auto got = system.Execute("live", variable, mc);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(got->stats.span_cache_hits, 0u);
    EXPECT_EQ(got->stats.span_cache_misses, 0u);

    const std::string oracle = "oracle" + std::to_string(length);
    archive_stream(oracle, length);
    auto want = system.Execute(oracle, variable, mc);
    ASSERT_TRUE(want.ok());
    ExpectSignalsIdentical(got->signal, want->signal, "warm mc");
    for (AccessMethodKind method :
         {AccessMethodKind::kScan, AccessMethodKind::kBTree}) {
      auto got_other = system.Execute("live", fixed, {.method = method});
      auto want_other = system.Execute(oracle, fixed, {.method = method});
      ASSERT_TRUE(got_other.ok() && want_other.ok());
      ExpectSignalsIdentical(got_other->signal, want_other->signal,
                             AccessMethodName(method));
    }
  }
  EXPECT_EQ(system.stream_epoch(), epoch);
}

// A recovering OpenForIngest retires every handle, and the span cache
// with it: the first MC query after the recovery composes every span anew
// on a new handle and answers as an archive built offline at the recovered
// length does. A handle kept and refreshed instead would serve the spans
// the query composed before the crash.
TEST(IngestFacadeTest, RecoveryRetiresSpans) {
  test::ScratchDir scratch("ingest_recovery_spans");
  auto workload = MakeSnippetStream(
      {.num_snippets = 4, .density = 0.5, .match_rate = 0.5, .seed = 1});
  ASSERT_TRUE(workload.ok());
  const MarkovianStream& full = workload->stream;
  ASSERT_GE(full.length(), 66u);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  auto archive_stream = [&](const std::string& name, uint64_t length) {
    ASSERT_TRUE(system.archive()->CreateStream(name, Prefix(full, length)).ok());
    ASSERT_TRUE(system.archive()->BuildBtc(name, 0).ok());
    ASSERT_TRUE(system.archive()->BuildMc(name, {.alpha = 2}).ok());
  };
  archive_stream("live", 62);
  const ExecOptions mc{.method = AccessMethodKind::kMcIndex};
  const RegularQuery variable = workload->EnteredRoomVariable();
  {
    auto ingestor = system.OpenForIngest("live");
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    ASSERT_TRUE(system.Execute("live", variable, mc).ok());
    auto warm = system.Execute("live", variable, mc);
    ASSERT_TRUE(warm.ok());
    ASSERT_GT(warm->stats.span_cache_hits, 0u);
    ASSERT_TRUE((*ingestor)->CommitWithoutApply(Slice(full, 62, 4)).ok());
  }
  auto recovered = system.OpenForIngest("live");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ((*recovered)->length(), 66u);

  auto got = system.Execute("live", variable, mc);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->stats.span_cache_hits, 0u);
  EXPECT_GT(got->stats.span_cache_misses, 0u);
  archive_stream("oracle", 66);
  auto want = system.Execute("oracle", variable, mc);
  ASSERT_TRUE(want.ok());
  ExpectSignalsIdentical(got->signal, want->signal, "recovered mc");
}

// A handle lent before a commit and released after it, with no other
// handle idle, is idled at its old length; the next GetStream refreshes it
// and lends the same handle at the new length, its pools still counting
// the scan it ran before (a reopened handle counts only its tree tails).
TEST(IngestFacadeTest, HandleLentAcrossACommitIsRefreshedWhenLentAgain) {
  test::ScratchDir scratch("ingest_lent");
  MarkovianStream full = test::MakeBandedStream(60, 8, 45);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ASSERT_TRUE(system.archive()->CreateStream("live", Prefix(full, 50)).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("live", 0).ok());
  auto ingestor = system.OpenForIngest("live");
  ASSERT_TRUE(ingestor.ok());
  auto lent = system.GetStream("live");
  ASSERT_TRUE(lent.ok());
  ASSERT_TRUE(
      RunPipeline(lent->get(), FixedQuery(), AccessMethodKind::kScan).ok());
  const uint64_t scan_fetches = (*lent)->stream()->IoStats().fetches;
  ASSERT_TRUE((*ingestor)->Append(Slice(full, 50, 10)).ok());
  EXPECT_EQ((*lent)->length(), 50u);
  const ArchivedStream* handle = lent->get();
  lent->reset();
  auto next = system.GetStream("live");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->get(), handle);
  EXPECT_EQ((*next)->length(), 60u);
  EXPECT_GE((*next)->stream()->IoStats().fetches, scan_fetches);
}

// A commit writes no tree file: an idle handle with warm tree pages
// answers for the appended timesteps from its trees' tails, and its BT_C
// and BT_P answers after the commit equal an offline build's.
TEST(IngestFacadeTest, RefreshedHandlesSeeTreeInserts) {
  test::ScratchDir scratch("ingest_trees");
  MarkovianStream full = test::MakeBandedStream(140, 8, 46);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  for (const auto& [name, length] :
       {std::pair<std::string, uint64_t>{"live", 100}, {"oracle", 140}}) {
    ASSERT_TRUE(
        system.archive()->CreateStream(name, Prefix(full, length)).ok());
    ASSERT_TRUE(system.archive()->BuildBtc(name, 0).ok());
    ASSERT_TRUE(system.archive()->BuildBtp(name, 0).ok());
  }
  const RegularQuery query = FixedQuery();
  const ExecOptions btree{.method = AccessMethodKind::kBTree};
  const ExecOptions topk{.method = AccessMethodKind::kTopK, .k = 5};
  ASSERT_TRUE(system.Execute("live", query, btree).ok());  // Warms the trees.
  ASSERT_TRUE(system.Execute("live", query, topk).ok());
  auto ingestor = system.OpenForIngest("live");
  ASSERT_TRUE(ingestor.ok());
  ASSERT_TRUE((*ingestor)->Append(Slice(full, 100, 40)).ok());
  for (const ExecOptions& options : {btree, topk}) {
    auto got = system.Execute("live", query, options);
    auto want = system.Execute("oracle", query, options);
    ASSERT_TRUE(got.ok() && want.ok());
    ExpectSignalsIdentical(got->signal, want->signal,
                           AccessMethodName(options.method));
  }
}

TEST(IngestFacadeTest, OpenForIngestUnknownStreamIsNotFound) {
  test::ScratchDir scratch("ingest_notfound");
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  auto ingestor = system.OpenForIngest("nope");
  ASSERT_FALSE(ingestor.ok());
  EXPECT_EQ(ingestor.status().code(), StatusCode::kNotFound);
}

// Ingest into a stream with no indexes at all: only the data files and
// meta grow; the scan still answers correctly.
TEST(IngestFacadeTest, IndexlessStreamsIngestToo) {
  test::ScratchDir scratch("ingest_noindex");
  MarkovianStream full = test::MakeBandedStream(120, 8, 47);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ASSERT_TRUE(system.archive()
                  ->CreateStream("live", Prefix(full, 90),
                                 DiskLayout::kCoClustered)
                  .ok());
  ASSERT_TRUE(system.archive()->CreateStream("oracle", full,
                                             DiskLayout::kCoClustered)
                  .ok());
  auto ingestor = system.OpenForIngest("live");
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  ASSERT_TRUE((*ingestor)->Append(Slice(full, 90, 30)).ok());
  EXPECT_EQ((*ingestor)->stats().btree_inserts, 0u);
  EXPECT_EQ((*ingestor)->stats().mc.nodes_recomputed, 0u);
  auto got = system.Execute("live", KleeneQuery(),
                            ExecOptions{.method = AccessMethodKind::kScan});
  auto want = system.Execute("oracle", KleeneQuery(),
                             ExecOptions{.method = AccessMethodKind::kScan});
  ASSERT_TRUE(got.ok() && want.ok());
  ExpectSignalsIdentical(got->signal, want->signal, "indexless-scan");
}

// Contents of every record file (*.rec and its *.rec.dir) in `dir`, by
// name.
std::map<std::string, std::string> RecordFileImages(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!name.ends_with(".rec") && !name.ends_with(".rec.dir")) continue;
    auto f = File::OpenReadOnly(entry.path().string());
    EXPECT_TRUE(f.ok()) << name;
    if (!f.ok()) continue;
    std::string bytes((*f)->size(), '\0');
    EXPECT_TRUE((*f)->ReadAt(0, bytes.size(), bytes.data()).ok());
    out[name] = std::move(bytes);
  }
  return out;
}

// One-timestep appends reopen every record file at its tail; the grown
// files (stream and MC levels, data and directory) must be byte-identical
// to an offline build at the same length.
TEST(IngestByteIdentityTest, SingleStepIngestsMatchOfflineRecordFiles) {
  const DifferentialVariant variants[] = {
      {DiskLayout::kSeparated, McIndexOptions{.alpha = 2}},
      {DiskLayout::kCoClustered, McIndexOptions{.alpha = 3}},
  };
  for (const DifferentialVariant& variant : variants) {
    SCOPED_TRACE(DiskLayoutName(variant.layout));
    test::ScratchDir scratch("ingest_bytes");
    MarkovianStream full = test::MakeBandedStream(200, 9, 53);
    StreamArchive archive(scratch.Path("archive"));
    ASSERT_TRUE(archive.Init().ok());
    ASSERT_TRUE(
        archive.CreateStream("live", Prefix(full, 120), variant.layout).ok());
    ASSERT_TRUE(archive.BuildMc("live", variant.mc).ok());
    ASSERT_TRUE(archive.CreateStream("oracle", full, variant.layout).ok());
    ASSERT_TRUE(archive.BuildMc("oracle", variant.mc).ok());

    auto ingestor = StreamIngestor::Open(archive.StreamDir("live"));
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    for (uint64_t t = 120; t < full.length(); ++t) {
      ASSERT_TRUE((*ingestor)->Append(Slice(full, t, 1)).ok()) << "t=" << t;
    }
    ingestor->reset();

    for (const std::string sub : {"", "/mc"}) {
      const auto want = RecordFileImages(archive.StreamDir("oracle") + sub);
      const auto got = RecordFileImages(archive.StreamDir("live") + sub);
      ASSERT_FALSE(want.empty());
      ASSERT_EQ(got.size(), want.size()) << sub;
      for (const auto& [name, bytes] : want) {
        ASSERT_TRUE(got.contains(name)) << sub << "/" << name;
        EXPECT_TRUE(got.at(name) == bytes) << sub << "/" << name;
      }
    }
  }
}

// WAL bytes one batch-1 append journals onto a stream of `length`
// timesteps with an alpha-2 MC index.
uint64_t BatchOneWalBytes(uint64_t length) {
  test::ScratchDir scratch("ingest_wal_" + std::to_string(length));
  MarkovianStream full = test::MakeBandedStream(length + 1, 6, 59);
  StreamArchive archive(scratch.Path("archive"));
  EXPECT_TRUE(archive.Init().ok());
  EXPECT_TRUE(archive.CreateStream("s", Prefix(full, length)).ok());
  EXPECT_TRUE(archive.BuildMc("s", {.alpha = 2}).ok());
  auto ingestor = StreamIngestor::Open(archive.StreamDir("s"));
  EXPECT_TRUE(ingestor.ok());
  if (!ingestor.ok()) return 0;
  EXPECT_TRUE((*ingestor)->Append(Slice(full, length, 1)).ok());
  return (*ingestor)->stats().wal_bytes;
}

// The undo journal of a one-step append must not grow with the stream:
// record files are journaled as a few header/meta/tail pages, never as
// their O(n) directory.
TEST(IngestJournalTest, BatchOneJournalDoesNotGrowWithLength) {
  // 1000 and 8008 transitions-after-append share 2-adic valuation 3, so
  // both appends complete blocks on MC levels 1-3 only.
  const uint64_t small = BatchOneWalBytes(1000);
  const uint64_t large = BatchOneWalBytes(8008);
  ASSERT_GT(small, 0u);
  // Journaled files: meta.bin, mc.meta, and a data + directory file for
  // marginals, cpts and MC levels 1-3. Only partial tail pages (and
  // mc.meta's per-level counts) may differ between the two lengths.
  constexpr uint64_t kJournaledFiles = 12;
  const uint64_t diff = small > large ? small - large : large - small;
  EXPECT_LE(diff, kJournaledFiles * kDefaultPageSize)
      << "1000 steps: " << small << " bytes, 8008 steps: " << large;
}

// The ingest path must not trust mc.meta's domain, which sizes
// McIndex::Extend's composition scratch. A corrupt
// value is refused before the commit point, so the stream stays as it was.
TEST(IngestCorruptionTest, CorruptMcDomainFailsBeforeCommit) {
  test::ScratchDir scratch("ingest_domain");
  MarkovianStream full = test::MakeBandedStream(130, 8, 61);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 120)).ok());
  ASSERT_TRUE(archive.BuildMc("s", {.alpha = 2}).ok());
  const std::string dir = archive.StreamDir("s");
  {
    auto meta = File::Open(dir + "/mc/mc.meta");
    ASSERT_TRUE(meta.ok());
    std::string domain;
    PutFixed32(0x7FFFFFFF, &domain);
    ASSERT_TRUE((*meta)->WriteAt(24, domain).ok());  // Domain field.
  }
  {
    auto ingestor = StreamIngestor::Open(dir);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    Status appended = (*ingestor)->Append(Slice(full, 120, 1));
    EXPECT_EQ(appended.code(), StatusCode::kCorruption) << appended.ToString();
    EXPECT_EQ((*ingestor)->length(), 120u);
    EXPECT_FALSE((*ingestor)->broken());
  }
  auto reopened = StreamIngestor::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->length(), 120u);
  EXPECT_EQ((*reopened)->stats().batches_recovered, 0u);
  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ((*stored)->length(), 120u);
}

// Writes a committed-looking batch frame (its CRC computed by Wal::Append)
// into the stream's WAL, so the next StreamIngestor::Open replays it.
void PlantBatchFrame(const std::string& dir, const std::string& payload) {
  auto wal = Wal::Open(StreamIngestor::WalPath(dir));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  constexpr uint8_t kBatchFrameType = 1;
  ASSERT_TRUE((*wal)->Append(kBatchFrameType, payload).ok());
  ASSERT_TRUE((*wal)->Sync().ok());
}

// A batch frame whose count field claims 0xFFFFFFFF timesteps: the decoder
// must refuse it from the payload size, not allocate for it first.
TEST(IngestCorruptionTest, BatchFrameWithHugeCountIsCorruption) {
  test::ScratchDir scratch("ingest_huge_count");
  MarkovianStream full = test::MakeBandedStream(40, 8, 71);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", full).ok());
  const std::string dir = archive.StreamDir("s");
  std::string payload;
  PutFixed64(full.length(), &payload);  // base
  PutFixed32(0xFFFFFFFFu, &payload);    // count
  PutFixed32(0, &payload);              // An empty marginal...
  PutFixed32(0, &payload);              // ...and an empty CPT.
  PlantBatchFrame(dir, payload);
  auto opened = StreamIngestor::Open(dir);
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
}

// A replayed batch whose CPT names a state outside the schema is refused
// before it reaches the stream files or the kernels.
TEST(IngestCorruptionTest, BatchFrameCptOutsideDomainIsCorruption) {
  test::ScratchDir scratch("ingest_cpt_domain");
  MarkovianStream full = test::MakeBandedStream(40, 8, 72);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 39)).ok());
  const std::string dir = archive.StreamDir("s");
  std::string payload;
  PutFixed64(39, &payload);  // base
  PutFixed32(1, &payload);   // count
  full.marginal(39).AppendTo(&payload);
  PutFixed32(1, &payload);  // One CPT row:
  PutFixed32(0, &payload);  //   src 0,
  PutFixed32(1, &payload);  //   one entry,
  PutFixed32(0xF0000000u, &payload);  // dst far outside the 8 states.
  PutDouble(1.0, &payload);
  PlantBatchFrame(dir, payload);
  auto opened = StreamIngestor::Open(dir);
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ((*stored)->length(), 39u);
}

std::string ReadWholeFile(const std::string& path) {
  auto f = File::OpenReadOnly(path);
  EXPECT_TRUE(f.ok()) << path;
  if (!f.ok()) return "";
  std::string bytes((*f)->size(), '\0');
  EXPECT_TRUE((*f)->ReadAt(0, bytes.size(), bytes.data()).ok());
  return bytes;
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  auto f = File::OpenOrCreate(path);
  ASSERT_TRUE(f.ok()) << path;
  ASSERT_TRUE((*f)->Truncate(0).ok());
  ASSERT_TRUE((*f)->WriteAt(0, bytes).ok());
}

// One frame of a WAL file: u32 payload length, u8 type, u64 sequence
// number, u32 CRC-32C over (type || seq || payload), then the payload.
struct WalFrame {
  uint8_t type = 0;
  uint64_t seq = 0;
  std::string payload;
};

std::vector<WalFrame> ParseWalFrames(const std::string& bytes) {
  std::vector<WalFrame> frames;
  for (size_t at = 8; at + 17 <= bytes.size();) {
    WalFrame frame;
    const uint32_t len = GetFixed32(bytes.data() + at);
    frame.type = static_cast<uint8_t>(bytes[at + 4]);
    frame.seq = GetFixed64(bytes.data() + at + 5);
    frame.payload = bytes.substr(at + 17, len);
    frames.push_back(std::move(frame));
    at += 17 + len;
  }
  return frames;
}

// The WAL file holding `frames`, each with a CRC that matches its bytes.
std::string EncodeWalFrames(const std::vector<WalFrame>& frames) {
  std::string out = "CLDRWAL1";
  for (const WalFrame& frame : frames) {
    char head[9];
    head[0] = static_cast<char>(frame.type);
    std::memcpy(head + 1, &frame.seq, 8);
    const uint32_t crc = Crc32cExtend(Crc32c(head, sizeof(head)),
                                      frame.payload.data(),
                                      frame.payload.size());
    PutFixed32(static_cast<uint32_t>(frame.payload.size()), &out);
    out.push_back(static_cast<char>(frame.type));
    PutFixed64(frame.seq, &out);
    PutFixed32(crc, &out);
    out += frame.payload;
  }
  return out;
}

// The WAL decoders behind a valid frame CRC: a committed-but-unapplied
// batch leaves a batch frame and its undo journal (page pre-images,
// truncates, metadata snapshots, absent-markers for a new MC level); each
// round damages one frame's payload (byte flips, a cut, or trailing
// bytes), re-stamps the CRC, and runs recovery. Every input must yield a
// Status, and whatever recovery accepts must open.
TEST(IngestCorruptionTest, MutatedWalFramesYieldAStatus) {
  test::ScratchDir scratch("ingest_wal_fuzz");
  MarkovianStream full = test::MakeBandedStream(70, 8, 73);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 64)).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  ASSERT_TRUE(archive.BuildMc("s", {.alpha = 2}).ok());
  const std::string pristine = archive.StreamDir("s");
  {
    auto ingestor = StreamIngestor::Open(pristine);
    ASSERT_TRUE(ingestor.ok());
    // 64 -> 67 timesteps adds MC level 6.
    ASSERT_TRUE((*ingestor)->CommitWithoutApply(Slice(full, 64, 3)).ok());
  }
  const std::string wal = ReadWholeFile(StreamIngestor::WalPath(pristine));
  const std::vector<WalFrame> frames = ParseWalFrames(wal);
  ASSERT_EQ(EncodeWalFrames(frames), wal);
  std::map<uint8_t, int> kinds;
  for (const WalFrame& frame : frames) ++kinds[frame.type];
  ASSERT_EQ(kinds.size(), 5u);  // The batch and all four undo kinds.

  const std::string dir = scratch.Path("work");
  auto restore = [&](const std::string& wal_bytes) {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir,
                          std::filesystem::copy_options::recursive);
    WriteWholeFile(StreamIngestor::WalPath(dir), wal_bytes);
  };
  // Unmutated, recovery replays the batch.
  restore(wal);
  {
    auto ingestor = StreamIngestor::Open(dir);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    EXPECT_EQ((*ingestor)->length(), 67u);
  }
  Rng rng(74);
  for (int round = 0; round < 3 * static_cast<int>(frames.size()); ++round) {
    SCOPED_TRACE(round);
    std::vector<WalFrame> mutated = frames;
    std::string& payload = mutated[round % frames.size()].payload;
    switch (round / frames.size()) {
      case 0:
        for (int flips = 0; flips < 1 + round % 3 && !payload.empty();
             ++flips) {
          payload[rng.NextBelow(payload.size())] ^=
              static_cast<char>(1 + rng.NextBelow(255));
        }
        break;
      case 1:
        payload.resize(rng.NextBelow(payload.size() + 1));
        break;
      default:
        for (int n = 0; n < 1 + round % 9; ++n) {
          payload.push_back(static_cast<char>(rng.NextBelow(256)));
        }
        break;
    }
    restore(EncodeWalFrames(mutated));
    auto ingestor = StreamIngestor::Open(dir);
    if (!ingestor.ok()) continue;  // Refused: a Status is all we ask.
    ingestor->reset();
    auto stored = StoredStream::Open(dir);
    ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  }
}

// A recovering open redoes batches that the writer which committed them
// already counted: it reports them in batches_recovered and appends no
// timestep itself.
TEST(IngestRecoveryTest, RedoneBatchesAreNotCountedAsAppended) {
  test::ScratchDir scratch("ingest_redo_count");
  MarkovianStream full = test::MakeBandedStream(200, 8, 31);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 150)).ok());
  ASSERT_TRUE(archive.BuildBtc("s", 0).ok());
  const std::string dir = archive.StreamDir("s");
  {
    auto ingestor = StreamIngestor::Open(dir);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    ASSERT_TRUE((*ingestor)->Append(Slice(full, 150, 10)).ok());
    ASSERT_TRUE((*ingestor)->CommitWithoutApply(Slice(full, 160, 10)).ok());
    EXPECT_EQ((*ingestor)->stats().batches_committed, 1u);
    EXPECT_EQ((*ingestor)->stats().timesteps_appended, 10u);
  }
  auto recovered = StreamIngestor::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->length(), 170u);
  EXPECT_EQ((*recovered)->stats().batches_recovered, 2u);
  EXPECT_EQ((*recovered)->stats().batches_committed, 0u);
  EXPECT_EQ((*recovered)->stats().timesteps_appended, 0u);
  ASSERT_TRUE((*recovered)->Append(Slice(full, 170, 10)).ok());
  EXPECT_EQ((*recovered)->stats().batches_committed, 1u);
  EXPECT_EQ((*recovered)->stats().timesteps_appended, 10u);
}

// Only the canonical tree names of the schema's attributes are indexes. A
// backup copy of the BT_C (btc.attr0.bt.orig) and a tree named for an
// attribute the one-attribute schema lacks (btc.attr7.bt) are neither
// opened nor written: after committed and recovered batches and the
// compactions of their checkpoints, the real trees hold exactly an offline
// build's entries, and a rebuild leaves both alone.
TEST(IngestTreeFilesTest, StrayTreeFilesAreNotIndexes) {
  test::ScratchDir scratch("ingest_stray_trees");
  Caldera system(scratch.Path("archive"));
  ArchiveWindowStream(&system, "s", kWindowBase);
  const std::string dir = system.archive()->StreamDir("s");
  const std::string backup = BtcIndexPath(dir, 0) + ".orig";
  const std::string foreign = BtcIndexPath(dir, 7);
  const std::string stray = ReadWholeFile(BtcIndexPath(dir, 0));
  WriteWholeFile(backup, stray);
  WriteWholeFile(foreign, stray);

  uint64_t length = kWindowBase;
  {
    auto ingestor = system.OpenForIngest("s");
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    for (int i = 0; i < 3; ++i, length += 10) {
      ASSERT_TRUE((*ingestor)->Append(Slice(WindowStream(), length, 10)).ok());
    }
    ASSERT_TRUE(
        (*ingestor)->CommitWithoutApply(Slice(WindowStream(), length, 10))
            .ok());
    length += 10;
  }
  {
    // Recovery redoes the four frames; its checkpoint compacts both trees.
    auto recovered = system.OpenForIngest("s");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ((*recovered)->stats().batches_recovered, 4u);
    ASSERT_EQ((*recovered)->length(), length);
    ASSERT_TRUE(
        (*recovered)->Append(Slice(WindowStream(), length, 10)).ok());
    length += 10;
  }

  ArchiveWindowStream(&system, "oracle", length);
  const std::string want = system.archive()->StreamDir("oracle");
  ExpectTreesHoldTheSameEntries(want, dir);
  EXPECT_EQ(ReadWholeFile(backup), stray);
  EXPECT_EQ(ReadWholeFile(foreign), stray);

  const Status rebuilt = system.RebuildIndexes("s");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.ToString();
  ExpectTreesHoldTheSameEntries(want, dir);
  EXPECT_EQ(ReadWholeFile(backup), stray);
  EXPECT_EQ(ReadWholeFile(foreign), stray);
}

// ---------------------------------------------------------------------------
// Tree compaction: a checkpoint rewrites each tree whose tail has reached
// 1/kTreeCompactionDivisor of what its file indexes; nothing else writes a
// tree file.

// Commits write no tree file: with every write to a *.bt file failing, 24
// commits onto 200 timesteps (below 200 / 8) and their checkpoint succeed
// and answer like an offline build. The next checkpoint finds the trees
// due, fails to write them and poisons the ingestor; the stream reopens to
// answers identical to an offline build all the same.
TEST(IngestCompactionTest, CommitsWriteNoTreeFile) {
  test::ScratchDir scratch("ingest_no_tree_writes");
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ArchiveWindowStream(&system, "s", kWindowBase);
  constexpr uint64_t kBelowDue = 24;
  ArchiveWindowStream(&system, "below", kWindowBase + kBelowDue);
  uint64_t length = kWindowBase;
  {
    FaultInjectionOptions fault;
    fault.fail_writes_from = 0;
    ScopedFaultInjection trees(".bt", fault);
    auto ingestor = system.OpenForIngest("s");
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    for (; length < kWindowBase + kBelowDue; ++length) {
      ASSERT_TRUE((*ingestor)->Append(Slice(WindowStream(), length, 1)).ok());
    }
    ASSERT_TRUE((*ingestor)->Checkpoint().ok());
    EXPECT_EQ((*ingestor)->stats().btree_inserts, 0u);
    EXPECT_EQ(trees.counters().writes, 0u);
    ExpectStreamsAgree(&system, "below", "s");

    ASSERT_TRUE((*ingestor)->Append(Slice(WindowStream(), length, 1)).ok());
    ++length;
    EXPECT_FALSE((*ingestor)->Checkpoint().ok());
    EXPECT_TRUE((*ingestor)->broken());
    EXPECT_GT(trees.counters().injected_write_errors, 0u);
  }
  ExpectRecoversTo(&system, "s", length);
}

// A checkpoint compacts exactly the trees that are due, each into a file
// that indexes the whole stream, and counts the entries it wrote. An idle
// handle refreshed by the next commit reopens the replaced files and
// answers like an offline build.
TEST(IngestCompactionTest, CheckpointCompactsDueTreesAndHandlesFollow) {
  test::ScratchDir scratch("ingest_compaction");
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ArchiveWindowStream(&system, "s", kWindowBase);
  const std::string dir = system.archive()->StreamDir("s");
  auto indexed_length = [&](const std::string& path) -> uint64_t {
    auto tree = BTree::Open(path);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return tree.ok() ? (*tree)->indexed_length() : 0;
  };
  auto ingestor = system.OpenForIngest("s");
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  ASSERT_TRUE(
      system.Execute("s", FixedQuery(), {.method = AccessMethodKind::kBTree})
          .ok());  // Leaves an idle handle.
  const BTree* warm = nullptr;
  {
    auto handle = system.GetStream("s");
    ASSERT_TRUE(handle.ok());
    warm = (*handle)->btc(0);
  }
  ASSERT_TRUE((*ingestor)->Append(Slice(WindowStream(), kWindowBase, 24)).ok());
  {
    // Refreshed, not reopened: the same tree, its tail over the 24 steps.
    auto handle = system.GetStream("s");
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ((*handle)->btc(0), warm);
    EXPECT_EQ((*handle)->btc(0)->indexed_length(), kWindowBase);
    EXPECT_EQ((*handle)->btc(0)->length(), kWindowBase + 24);
  }
  ASSERT_TRUE((*ingestor)->Checkpoint().ok());
  EXPECT_EQ((*ingestor)->stats().btree_inserts, 0u);
  EXPECT_EQ(indexed_length(BtcIndexPath(dir, 0)), kWindowBase);

  ASSERT_TRUE(
      (*ingestor)->Append(Slice(WindowStream(), kWindowBase + 24, 1)).ok());
  const uint64_t fsyncs = (*ingestor)->stats().fsyncs;
  ASSERT_TRUE((*ingestor)->Checkpoint().ok());
  uint64_t entries = 0;
  for (const std::string& path : {BtcIndexPath(dir, 0), BtpIndexPath(dir, 0)}) {
    EXPECT_EQ(indexed_length(path), kWindowBase + 25) << path;
    auto tree = BTree::Open(path);
    ASSERT_TRUE(tree.ok());
    entries += (*tree)->num_entries();
  }
  EXPECT_EQ((*ingestor)->stats().btree_inserts, entries);
  // meta.bin, four stream files, mc.meta, the MC levels the commit grew
  // (two files each), the WAL reset, and per tree its new file and the
  // directory.
  const McIndexOptions mc{.alpha = 2};
  const std::vector<uint64_t> counts_before =
      McIndex::LevelCounts(kWindowBase + 24, mc);
  const std::vector<uint64_t> counts_after =
      McIndex::LevelCounts(kWindowBase + 25, mc);
  uint64_t levels = 0;
  for (size_t i = 0; i < counts_after.size(); ++i) {
    levels += i >= counts_before.size() || counts_after[i] != counts_before[i];
  }
  EXPECT_EQ((*ingestor)->stats().fsyncs - fsyncs,
            1 + 4 + 1 + 2 * levels + 1 + 2 * 2);

  ASSERT_TRUE(
      (*ingestor)->Append(Slice(WindowStream(), kWindowBase + 25, 1)).ok());
  {
    auto handle = system.GetStream("s");
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ((*handle)->btc(0)->indexed_length(), kWindowBase + 25);
    EXPECT_EQ((*handle)->btc(0)->length(), kWindowBase + 26);
    EXPECT_EQ((*handle)->btp(0)->indexed_length(), kWindowBase + 25);
  }
  ArchiveWindowStream(&system, "oracle", kWindowBase + 26);
  ExpectStreamsAgree(&system, "oracle", "s");
  ExpectTreesHoldTheSameEntries(system.archive()->StreamDir("oracle"), dir);
}

// A tree a checkpoint compacted is, byte for byte, the file an offline
// BuildBtc / BuildBtp writes over the whole stream.
TEST(IngestCompactionTest, CompactedTreeFilesEqualAnOfflineBuild) {
  test::ScratchDir scratch("ingest_compaction_bytes");
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->Init().ok());
  ArchiveWindowStream(&system, "s", kWindowBase);
  constexpr uint64_t kAppended = 40;  // Past kWindowBase / 8: both due.
  {
    auto ingestor = system.OpenForIngest("s");
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    ASSERT_TRUE(
        (*ingestor)->Append(Slice(WindowStream(), kWindowBase, kAppended))
            .ok());
    ASSERT_TRUE((*ingestor)->Checkpoint().ok());
    EXPECT_GT((*ingestor)->stats().btree_inserts, 0u);
  }
  ArchiveWindowStream(&system, "oracle", kWindowBase + kAppended);
  const std::string got = system.archive()->StreamDir("s");
  const std::string want = system.archive()->StreamDir("oracle");
  for (const auto& path : {BtcIndexPath, BtpIndexPath}) {
    const std::string compacted = ReadWholeFile(path(got, 0));
    EXPECT_FALSE(compacted.empty());
    EXPECT_TRUE(compacted == ReadWholeFile(path(want, 0))) << path(got, 0);
  }
}

// Sync calls through the stream's files before and after a checkpoint that
// compacts both trees, on a clean run.
std::pair<int64_t, int64_t> CompactingCheckpointSyncs() {
  test::ScratchDir scratch("ingest_compaction_count");
  Caldera system(scratch.Path("archive"));
  EXPECT_TRUE(system.archive()->Init().ok());
  ArchiveWindowStream(&system, "s", kWindowBase);
  const std::string dir = system.archive()->StreamDir("s");
  ScopedFaultInjection disk(dir, {});
  auto ingestor = StreamIngestor::Open(dir);
  EXPECT_TRUE(ingestor.ok());
  if (!ingestor.ok()) return {0, 0};
  EXPECT_TRUE(
      (*ingestor)->Append(Slice(WindowStream(), kWindowBase, 40)).ok());
  const auto before = static_cast<int64_t>(disk.counters().syncs);
  EXPECT_TRUE((*ingestor)->Checkpoint().ok());
  EXPECT_GT((*ingestor)->stats().btree_inserts, 0u);
  return {before, static_cast<int64_t>(disk.counters().syncs)};
}

// A crash at each of a compaction's syncs, keeping a seeded half of the
// unsynced writes. Per tree the compaction syncs its new file, renames it
// over the old one and syncs the directory, so the crash at a directory
// sync is the crash between a rename and the directory sync. Each must
// reopen to the acknowledged length with answers, merged trees and MC
// levels identical to an offline build.
TEST(IngestCompactionTest, CrashAtEachCompactionSync) {
  const auto [before, after] = CompactingCheckpointSyncs();
  // The checkpoint's last syncs: two trees, a file and a directory each.
  constexpr int64_t kCompactionSyncs = 4;
  ASSERT_GT(after - before, kCompactionSyncs);
  for (int64_t sync = after - kCompactionSyncs; sync < after; ++sync) {
    SCOPED_TRACE(sync);
    test::ScratchDir scratch("ingest_compaction_crash");
    Caldera system(scratch.Path("archive"));
    ASSERT_TRUE(system.archive()->Init().ok());
    ArchiveWindowStream(&system, "s", kWindowBase);
    const std::string dir = system.archive()->StreamDir("s");
    {
      FaultInjectionOptions options;
      options.crash_at_sync = sync;
      options.crash_keep_prob = 0.5;
      options.seed = 300 + sync;
      ScopedFaultInjection disk(dir, options);
      auto ingestor = StreamIngestor::Open(dir);
      ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
      ASSERT_TRUE(
          (*ingestor)->Append(Slice(WindowStream(), kWindowBase, 40)).ok());
      EXPECT_FALSE((*ingestor)->Checkpoint().ok());
      EXPECT_TRUE(disk.crashed());
    }
    ExpectRecoversTo(&system, "s", kWindowBase + 40);
  }
}

// ---------------------------------------------------------------------------
// A read handle never writes a tree file: one that wrote its in-memory tree
// meta back when destroyed would leave the entry count and root of a tree
// other writers had replaced stale on disk, and fsck would fail on a
// healthy archive.

// An idle handle refreshed over a commit: a fresh open verifies clean.
TEST(IngestTreeMetaTest, IdleHandleRefreshKeepsTreesVerifiable) {
  test::ScratchDir scratch("ingest_meta_idle");
  const MarkovianStream full = test::MakeBandedStream(210, 8, 91);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->CreateStream("s", Prefix(full, 200)).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  ASSERT_TRUE(
      system.Execute("s", FixedQuery(), {.method = AccessMethodKind::kBTree})
          .ok());  // Leaves an idle handle.
  auto ingestor = system.OpenForIngest("s");
  ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  ASSERT_TRUE((*ingestor)->Append(Slice(full, 200, 10)).ok());
  // The next borrow refreshes the idle handle over the commit.
  {
    auto refreshed = system.GetStream("s");
    ASSERT_TRUE(refreshed.ok());
    EXPECT_EQ((*refreshed)->length(), 210u);
  }
  auto fresh = ArchivedStream::Open(system.archive()->StreamDir("s"));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  VerifyReport report;
  const Status verified = VerifyArchivedStream(fresh->get(), &report);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  EXPECT_EQ(report.timesteps_checked, 210u);
}

// A handle held across 2000 appended timesteps on 3000 (enough to grow
// the tree a level, and to compact it when the ingestor closes), released
// after the ingestor closed: a fresh open verifies clean.
TEST(IngestTreeMetaTest, HandleHeldAcrossCommitsKeepsTreesVerifiable) {
  test::ScratchDir scratch("ingest_meta_held");
  const MarkovianStream full = test::MakeBandedStream(5000, 8, 92);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->CreateStream("s", Prefix(full, 3000)).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  auto held = system.GetStream("s");
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  {
    auto ingestor = system.OpenForIngest("s");
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    for (uint64_t at = 3000; at < 5000; at += 100) {
      ASSERT_TRUE((*ingestor)->Append(Slice(full, at, 100)).ok());
    }
  }
  held->reset();
  auto fresh = ArchivedStream::Open(system.archive()->StreamDir("s"));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  VerifyReport report;
  const Status verified = VerifyArchivedStream(fresh->get(), &report);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  EXPECT_EQ(report.timesteps_checked, 5000u);
}

// ---------------------------------------------------------------------------
// One writer per stream: an ingestor, or an index rebuild.

// A second OpenForIngest of a stream with a live ingestor is refused, the
// first keeps committing, and once it is gone the stream opens for ingest
// again. The archive verifies clean.
TEST(IngestFacadeTest, SecondIngestorIsRefused) {
  test::ScratchDir scratch("ingest_second_writer");
  const MarkovianStream full = test::MakeBandedStream(230, 8, 93);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->CreateStream("s", Prefix(full, 200)).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->BuildBtp("s", 0).ok());
  {
    auto first = system.OpenForIngest("s");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE((*first)->Append(Slice(full, 200, 10)).ok());
    auto second = system.OpenForIngest("s");
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition)
        << second.status().ToString();
    ASSERT_TRUE((*first)->Append(Slice(full, 210, 10)).ok());
  }
  auto third = system.OpenForIngest("s");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ((*third)->stats().batches_recovered, 0u);
  ASSERT_TRUE((*third)->Append(Slice(full, 220, 10)).ok());
  third->reset();
  auto fresh = ArchivedStream::Open(system.archive()->StreamDir("s"));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  VerifyReport report;
  const Status verified = VerifyArchivedStream(fresh->get(), &report);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
  EXPECT_EQ(report.timesteps_checked, 230u);
}

// A writer in another process holds the stream's ingest lock, so neither
// the facade nor a bare StreamIngestor::Open gets a second writer, and no
// index rebuild runs under it. The
// child then dies without closing its ingestor: the kernel drops the lock,
// and the next open recovers the batch the child committed.
TEST(IngestLockTest, IngestorInAnotherProcessIsRefused) {
  test::ScratchDir scratch("ingest_lock");
  const MarkovianStream full = test::MakeBandedStream(120, 8, 17);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 100)).ok());
  const std::string dir = archive.StreamDir("s");

  // The child reports on `ready` once its ingestor holds the stream, then
  // waits until the parent closes `release`.
  int ready[2];
  int release[2];
  ASSERT_EQ(::pipe(ready), 0);
  ASSERT_EQ(::pipe(release), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(ready[0]);
    ::close(release[1]);
    auto ingestor = StreamIngestor::Open(dir);
    char c = ingestor.ok() && (*ingestor)->Append(Slice(full, 100, 10)).ok()
                 ? 'y'
                 : 'n';
    if (::write(ready[1], &c, 1) != 1) ::_exit(2);
    while (::read(release[0], &c, 1) > 0) {
    }
    ::_exit(0);  // Dies holding the ingestor, with no checkpoint.
  }
  ::close(ready[1]);
  ::close(release[0]);
  // Lets the child exit and reaps it, on any path out of the test.
  struct ChildGuard {
    pid_t pid;
    int release_fd;
    int status = -1;
    int Release() {
      if (release_fd >= 0) {
        ::close(release_fd);
        release_fd = -1;
        ::waitpid(pid, &status, 0);
      }
      return status;
    }
    ~ChildGuard() { Release(); }
  } guard{child, release[1]};
  char c = 0;
  ASSERT_EQ(::read(ready[0], &c, 1), 1);
  ::close(ready[0]);
  ASSERT_EQ(c, 'y');

  Caldera system(scratch.Path("archive"));
  auto refused = system.OpenForIngest("s");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
      << refused.status().ToString();
  auto bare = StreamIngestor::Open(dir);
  ASSERT_FALSE(bare.ok());
  EXPECT_EQ(bare.status().code(), StatusCode::kFailedPrecondition)
      << bare.status().ToString();
  EXPECT_EQ(system.RebuildIndexes("s").code(),
            StatusCode::kFailedPrecondition);

  const int status = guard.Release();
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  auto recovered = system.OpenForIngest("s");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->stats().batches_recovered, 1u);
  EXPECT_EQ((*recovered)->length(), 110u);
  ASSERT_TRUE((*recovered)->Append(Slice(full, 110, 10)).ok());
}

// RebuildIndexes of a stream with a live ingestor is refused (the
// ingestor's checkpoints replace the tree files), the ingestor keeps
// committing, and once it is gone the rebuild runs. BT_C answers equal an
// offline build's and the archive verifies clean.
TEST(IngestFacadeTest, RebuildDuringIngestIsRefused) {
  test::ScratchDir scratch("ingest_rebuild_writer");
  const MarkovianStream full = test::MakeBandedStream(220, 8, 94);
  Caldera system(scratch.Path("archive"));
  ASSERT_TRUE(system.archive()->CreateStream("s", Prefix(full, 200)).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("s", 0).ok());
  ASSERT_TRUE(system.archive()->CreateStream("oracle", full).ok());
  ASSERT_TRUE(system.archive()->BuildBtc("oracle", 0).ok());
  {
    auto ingestor = system.OpenForIngest("s");
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    ASSERT_TRUE((*ingestor)->Append(Slice(full, 200, 10)).ok());
    EXPECT_EQ(system.RebuildIndexes("s").code(),
              StatusCode::kFailedPrecondition);
    ASSERT_TRUE((*ingestor)->Append(Slice(full, 210, 10)).ok());
  }
  ASSERT_TRUE(system.RebuildIndexes("s").ok());
  const ExecOptions btree{.method = AccessMethodKind::kBTree};
  auto got = system.Execute("s", FixedQuery(), btree);
  auto want = system.Execute("oracle", FixedQuery(), btree);
  ASSERT_TRUE(got.ok() && want.ok());
  ExpectSignalsIdentical(got->signal, want->signal, "after rebuild");
  auto fresh = ArchivedStream::Open(system.archive()->StreamDir("s"));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  VerifyReport report;
  const Status verified = VerifyArchivedStream(fresh->get(), &report);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

// The MC maintenance of redone batches was counted by the writer that
// committed them: a recovering open reports none, and its own commits
// count again.
TEST(IngestRecoveryTest, RedoneBatchesAreNotCountedAsMcWork) {
  test::ScratchDir scratch("ingest_redo_mc");
  const MarkovianStream full = test::MakeBandedStream(200, 8, 95);
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.CreateStream("s", Prefix(full, 150)).ok());
  ASSERT_TRUE(archive.BuildMc("s", {.alpha = 2}).ok());
  const std::string dir = archive.StreamDir("s");
  {
    auto ingestor = StreamIngestor::Open(dir);
    ASSERT_TRUE(ingestor.ok()) << ingestor.status().ToString();
    ASSERT_TRUE((*ingestor)->Append(Slice(full, 150, 10)).ok());
    EXPECT_GT((*ingestor)->stats().mc.nodes_recomputed, 0u);
    ASSERT_TRUE((*ingestor)->CommitWithoutApply(Slice(full, 160, 10)).ok());
  }
  auto recovered = StreamIngestor::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->stats().batches_recovered, 2u);
  EXPECT_EQ((*recovered)->stats().mc.nodes_recomputed, 0u);
  EXPECT_EQ((*recovered)->stats().mc.levels_touched, 0u);
  EXPECT_EQ((*recovered)->stats().mc.levels_added, 0u);
  ASSERT_TRUE((*recovered)->Append(Slice(full, 170, 10)).ok());
  EXPECT_GT((*recovered)->stats().mc.nodes_recomputed, 0u);
}

}  // namespace
}  // namespace caldera
