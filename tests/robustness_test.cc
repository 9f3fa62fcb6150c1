// Robustness / fuzz-style tests: random bytes fed to every on-disk parser
// and to the query parser must produce Status errors (or benign successes),
// never crashes, hangs, or unbounded allocations.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "btree/btree.h"
#include "common/encoding.h"
#include "common/logging.h"
#include "common/rng.h"
#include "index/mc_index.h"
#include "markov/cpt.h"
#include "markov/distribution.h"
#include "markov/schema.h"
#include "markov/stream_io.h"
#include "query/parser.h"
#include "rfid/workload.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "storage/record_file.h"
#include "test_util.h"

namespace caldera {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t len = rng->NextBelow(max_len);
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng->NextBelow(256));
  return out;
}

TEST(RobustnessTest, DistributionParseOnRandomBytes) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = RandomBytes(&rng, 64);
    size_t offset = 0;
    Distribution parsed;
    if (Distribution::Parse(bytes, &offset, UINT32_MAX, &parsed).ok()) {
      // A benign parse must have consumed a coherent prefix.
      EXPECT_LE(offset, bytes.size());
    }
  }
}

TEST(RobustnessTest, CptParseOnRandomBytes) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = RandomBytes(&rng, 96);
    size_t offset = 0;
    Cpt parsed;
    if (Cpt::Parse(bytes, &offset, /*domain=*/UINT32_MAX, &parsed).ok()) {
      EXPECT_LE(offset, bytes.size());
    }
  }
}

// The invariants every successfully decoded table must hold; the kernels
// index their dense scratch by these ids without further checks.
void ExpectWellFormedCpt(const Cpt& cpt, uint32_t domain) {
  ASSERT_EQ(cpt.probs().size(), cpt.nnz());
  if (cpt.empty()) {
    EXPECT_TRUE(cpt.offsets().empty());
    EXPECT_EQ(cpt.nnz(), 0u);
    return;
  }
  ASSERT_EQ(cpt.offsets().size(), cpt.num_rows() + 1);
  EXPECT_EQ(cpt.offsets().front(), 0u);
  EXPECT_EQ(cpt.offsets().back(), cpt.nnz());
  for (size_t i = 0; i < cpt.num_rows(); ++i) {
    EXPECT_LT(cpt.srcs()[i], domain);
    if (i > 0) {
      EXPECT_LT(cpt.srcs()[i - 1], cpt.srcs()[i]);
    }
    ASSERT_LE(cpt.offsets()[i], cpt.offsets()[i + 1]);
    for (uint32_t j = cpt.offsets()[i]; j < cpt.offsets()[i + 1]; ++j) {
      EXPECT_LT(cpt.dsts()[j], domain);
      EXPECT_GE(cpt.dsts()[j], cpt.dst_begin());
      EXPECT_LT(cpt.dsts()[j], cpt.dst_end());
      if (j > cpt.offsets()[i]) {
        EXPECT_LT(cpt.dsts()[j - 1], cpt.dsts()[j]);
      }
    }
  }
}

// Serialized transitions of a routine trace, cut at every length and
// mutated with seeded byte flips, decoded into one reused table as the scan
// does: each input yields a Status or a well-formed table.
TEST(RobustnessTest, CptDecodeFuzzOnRoutineTransitions) {
  RoutineSpec spec;
  spec.length = 120;
  spec.paper_building = false;
  Result<RoutineWorkload> w = MakeRoutineStream(spec);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  const uint32_t domain = w->schema.state_count();
  std::vector<std::string> records;
  for (uint64_t t = 1; t < w->stream.length(); t += 7) {
    records.emplace_back();
    w->stream.transition(t).AppendTo(&records.back());
  }
  Cpt out;
  for (const std::string& record : records) {
    for (size_t len = 0; len < record.size(); ++len) {
      size_t offset = 0;
      EXPECT_FALSE(Cpt::Parse(std::string_view(record).substr(0, len),
                              &offset, domain, &out)
                       .ok())
          << "a strict prefix of " << record.size() << " bytes: " << len;
      EXPECT_TRUE(out.empty());
    }
    size_t offset = 0;
    ASSERT_TRUE(Cpt::Parse(record, &offset, domain, &out).ok());
    ExpectWellFormedCpt(out, domain);
  }
  Rng rng(0xDEC0DE);
  size_t accepted = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string mutated = records[rng.NextBelow(records.size())];
    const int flips = 1 + static_cast<int>(rng.NextBelow(3));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.NextBelow(mutated.size())] ^=
          static_cast<char>(1 + rng.NextBelow(255));
    }
    size_t offset = 0;
    if (Cpt::Parse(mutated, &offset, domain, &out).ok()) {
      ++accepted;
      EXPECT_LE(offset, mutated.size());
      ExpectWellFormedCpt(out, domain);
    } else {
      EXPECT_TRUE(out.empty());
    }
  }
  // Flips inside probabilities decode fine; the test must exercise both.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 4000u);
}

TEST(RobustnessTest, SchemaParseOnRandomBytes) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = RandomBytes(&rng, 96);
    size_t offset = 0;
    Result<StreamSchema> parsed = StreamSchema::Parse(bytes, &offset);
    if (parsed.ok()) {
      EXPECT_LE(offset, bytes.size());
    }
  }
}

TEST(RobustnessTest, MutatedSerializationsStillSafe) {
  // Start from VALID serializations and flip bytes: closer to real
  // corruption than pure random bytes.
  Rng rng(4);
  Distribution d = Distribution::FromPairs({{1, 0.25}, {9, 0.5}, {20, 0.25}});
  Cpt cpt;
  cpt.SetRow(0, {{1, 0.5}, {2, 0.5}});
  cpt.SetRow(5, {{5, 1.0}});
  std::string dist_bytes, cpt_bytes;
  d.AppendTo(&dist_bytes);
  cpt.AppendTo(&cpt_bytes);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = dist_bytes;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<char>(1 + rng.NextBelow(255));
    size_t offset = 0;
    Distribution parsed_dist;
    (void)Distribution::Parse(mutated, &offset, UINT32_MAX, &parsed_dist);

    mutated = cpt_bytes;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<char>(1 + rng.NextBelow(255));
    offset = 0;
    Cpt parsed;
    (void)Cpt::Parse(mutated, &offset, /*domain=*/UINT32_MAX, &parsed);
  }
}

TEST(RobustnessTest, QueryParserOnRandomStrings) {
  StreamSchema schema = SingleAttributeSchema("loc", {"A", "B", "C"});
  SchemaResolver resolver(&schema);
  Rng rng(5);
  const std::string alphabet = "QABC(),!* \txyz0123";
  for (int i = 0; i < 5000; ++i) {
    std::string text;
    size_t len = rng.NextBelow(24);
    for (size_t j = 0; j < len; ++j) {
      text.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    Result<RegularQuery> parsed = ParseQuery(text, resolver);
    if (parsed.ok()) {
      // Anything that parses must also validate structurally.
      EXPECT_GE(parsed->num_links(), 1u);
    }
  }
}

std::string ReadWholeFile(const std::string& path) {
  auto file = File::OpenReadOnly(path);
  CALDERA_CHECK_OK(file.status());
  std::string bytes((*file)->size(), '\0');
  CALDERA_CHECK_OK((*file)->ReadAt(0, bytes.size(), bytes.data()));
  return bytes;
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  auto file = File::OpenOrCreate(path);
  CALDERA_CHECK_OK(file.status());
  CALDERA_CHECK_OK((*file)->Truncate(0));
  CALDERA_CHECK_OK((*file)->Append(bytes));
}

// XORs one random byte of `bytes` with a nonzero mask.
void FlipByte(Rng* rng, std::string* bytes) {
  (*bytes)[rng->NextBelow(bytes->size())] ^=
      static_cast<char>(1 + rng->NextBelow(255));
}

// Flips one payload byte of a random data page of the pager file `path`
// through Pager::ReadPage / WritePage. The write re-stamps the page CRC,
// so the damage passes the checksum and reaches the decoder behind it.
void FlipPayloadByte(Rng* rng, const std::string& path) {
  auto pager = Pager::Open(path);
  CALDERA_CHECK_OK(pager.status());
  const PageId id = 1 + rng->NextBelow((*pager)->page_count() - 1);
  std::string page((*pager)->page_size(), '\0');
  CALDERA_CHECK_OK((*pager)->ReadPage(id, page.data()));
  FlipByte(rng, &page);
  CALDERA_CHECK_OK((*pager)->WritePage(id, page.data()));
  CALDERA_CHECK_OK((*pager)->Sync());
}

// Opens the (possibly damaged) tree at `path`, gives it a tail, and drives
// every read path. Operations may fail with a Status but must not crash.
void ExerciseTree(const std::string& path, Rng* rng) {
  auto tree = BTree::Open(path);
  if (!tree.ok()) return;  // Rejected at open: fine.
  std::string tail_key;
  EncodeU64(rng->NextBelow(600), &tail_key);
  (void)(*tree)->AddToTail(tail_key + "tttt");
  // Checking invariants exercises every node.
  (void)(*tree)->CheckInvariants();
  auto cursor = (*tree)->SeekFirst();
  if (cursor.ok()) {
    int steps = 0;
    while (cursor->valid() && steps++ < 2000) {
      if (!cursor->Next().ok()) break;
    }
  }
  std::string key;
  EncodeU64(rng->NextBelow(600), &key);
  (void)(*tree)->Get(key);
  (void)(*tree)->Seek(key);
}

TEST(RobustnessTest, BTreeOpenOnMutatedTreeFile) {
  test::ScratchDir scratch("robust_btree");
  const std::string path = scratch.Path("t.bt");
  {
    auto builder = BTreeBuilder::Create(path, {8, 4}, 512);
    ASSERT_TRUE(builder.ok());
    std::string value(4, 'v');
    for (uint64_t i = 0; i < 500; ++i) {
      std::string key;
      EncodeU64(i, &key);
      ASSERT_TRUE((*builder)->Add(key, value).ok());
    }
    ASSERT_TRUE((*builder)->Finish(/*indexed_length=*/500).ok());
  }
  const std::string original = ReadWholeFile(path);
  const std::string mutated = scratch.Path("mut.bt");
  Rng rng(6);
  // Raw flips anywhere in the file: the page CRCs must reject them.
  for (int round = 0; round < 20; ++round) {
    std::string bytes = original;
    for (int flips = 0; flips < 8; ++flips) FlipByte(&rng, &bytes);
    WriteWholeFile(mutated, bytes);
    ExerciseTree(mutated, &rng);
  }
  // Flips with re-stamped CRCs: the node and meta decoders see them.
  for (int round = 0; round < 150; ++round) {
    WriteWholeFile(mutated, original);
    for (int flips = 0; flips < 1 + round % 4; ++flips) {
      FlipPayloadByte(&rng, mutated);
    }
    ExerciseTree(mutated, &rng);
  }
}

// Opens the (possibly damaged) record file at `path`, reads every record,
// then appends one. Status errors are fine; crashes are not.
void ExerciseRecordFile(const std::string& path) {
  auto reader = RecordFileReader::Open(path);
  // Both files exist, so a failure is a decode error, never NotFound.
  EXPECT_NE(reader.status().code(), StatusCode::kNotFound)
      << reader.status().ToString();
  if (reader.ok()) {
    std::string out;
    for (uint64_t i = 0; i < (*reader)->num_records(); ++i) {
      (void)(*reader)->Get(i, &out);
    }
  }
  auto writer = RecordFileWriter::OpenForAppend(path);
  if (!writer.ok()) return;
  if ((*writer)->Append(std::string(40, 'e')).ok()) {
    (void)(*writer)->Finalize();
  }
}

TEST(RobustnessTest, RecordFileOpenOnMutatedFile) {
  test::ScratchDir scratch("robust_recfile");
  const std::string path = scratch.Path("r.rec");
  {
    auto writer = RecordFileWriter::Create(path, 512);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*writer)->Append(std::string(40, 'd')).ok());
    }
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  // A record file is the data file plus its directory sidecar; both are
  // copied every round and the flips are spread over both.
  const std::string data = ReadWholeFile(path);
  const std::string dir = ReadWholeFile(RecordFileDirPath(path));
  const std::string mutated = scratch.Path("mut.rec");
  const std::string files[2] = {mutated, RecordFileDirPath(mutated)};
  // The unmutated copy must open and read back, or the rounds below would
  // only exercise an early failure.
  WriteWholeFile(mutated, data);
  WriteWholeFile(files[1], dir);
  {
    auto reader = RecordFileReader::Open(mutated);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_EQ((*reader)->num_records(), 200u);
    std::string out;
    ASSERT_TRUE((*reader)->Get(199, &out).ok());
    EXPECT_EQ(out, std::string(40, 'd'));
  }
  Rng rng(7);
  // Raw flips: the page CRCs must reject them.
  for (int round = 0; round < 20; ++round) {
    std::string bytes[2] = {data, dir};
    for (int flips = 0; flips < 8; ++flips) {
      FlipByte(&rng, &bytes[rng.NextBelow(2)]);
    }
    WriteWholeFile(files[0], bytes[0]);
    WriteWholeFile(files[1], bytes[1]);
    ExerciseRecordFile(mutated);
  }
  // Flips with re-stamped CRCs: the meta and directory decoders see them.
  for (int round = 0; round < 200; ++round) {
    WriteWholeFile(files[0], data);
    WriteWholeFile(files[1], dir);
    for (int flips = 0; flips < 1 + round % 4; ++flips) {
      FlipPayloadByte(&rng, files[rng.NextBelow(2)]);
    }
    ExerciseRecordFile(mutated);
  }
}

// Opens the (possibly damaged) MC index in `dir` and composes every span of
// the stored stream through ComputeCpt and the span cache. Lookups may fail
// with a Status but must not crash.
void ExerciseMcIndex(const std::string& dir, const TransitionSource& source,
                     uint64_t length) {
  auto index = McIndex::Open(dir, source, /*pool_pages=*/4);
  if (!index.ok()) return;
  Cpt out;
  for (uint64_t from = 0; from + 1 < length; ++from) {
    for (uint64_t to = from + 1; to < length; ++to) {
      (void)(*index)->ComputeCpt(from, to, &out);
      (void)(*index)->GetSpanCpt(from, to);
    }
  }
}

// The MC index decoders behind a damaged level file or mc.meta: one file is
// mutated per round, then Open, every span lookup, ReadMeta and a direct
// Extend must each return a Status or an answer.
TEST(RobustnessTest, McIndexOnMutatedFiles) {
  test::ScratchDir scratch("robust_mc");
  const MarkovianStream stream = test::MakeBandedStream(40, 6, 9);
  ASSERT_TRUE(WriteStream(scratch.Path("s"), stream).ok());
  auto stored = StoredStream::Open(scratch.Path("s"));
  ASSERT_TRUE(stored.ok());
  StoredStream* raw = stored->get();
  const TransitionSource source = [raw](uint64_t t, Cpt* out) {
    return raw->ReadTransition(t, out);
  };
  // Built over a prefix, so a direct Extend to the full length has a
  // right spine to compose and a new level to create.
  const std::string pristine = scratch.Path("pristine");
  ASSERT_TRUE(McIndex::Build(pristine, source, 30, 6, {.alpha = 2}).ok());
  std::vector<std::string> level_files;
  for (const auto& entry : std::filesystem::directory_iterator(pristine)) {
    if (entry.path().filename() != "mc.meta") {
      level_files.push_back(entry.path().filename().string());
    }
  }
  ASSERT_EQ(level_files.size(), 8u);  // 4 levels, each data + directory.
  const std::string dir = scratch.Path("mc");
  auto restore = [&] {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(pristine, dir);
  };
  restore();
  ASSERT_TRUE(McIndex::ReadMeta(dir).ok());
  Rng rng(10);

  // Level files, flipped behind a re-stamped page CRC.
  for (int round = 0; round < 60; ++round) {
    restore();
    const std::string file =
        dir + "/" + level_files[rng.NextBelow(level_files.size())];
    for (int flips = 0; flips < 1 + round % 3; ++flips) {
      FlipPayloadByte(&rng, file);
    }
    ExerciseMcIndex(dir, source, stream.length());
  }

  // mc.meta, which has no CRC: overwrite one to three fields with a nearby,
  // a boundary or a random value. Field (offset, width): alpha, num_levels,
  // length, domain and the four level counts.
  const std::string meta_path = dir + "/mc.meta";
  const std::string meta = ReadWholeFile(pristine + "/mc.meta");
  const std::pair<size_t, size_t> fields[] = {
      {8, 4}, {12, 4}, {16, 8}, {24, 4}, {28, 8}, {36, 8}, {44, 8}, {52, 8}};
  ASSERT_EQ(meta.size(), 60u);
  for (int round = 0; round < 120; ++round) {
    restore();
    std::string bytes = meta;
    for (int n = 0; n < 1 + round % 3; ++n) {
      const auto [offset, width] = fields[rng.NextBelow(std::size(fields))];
      uint64_t value = 0;
      std::memcpy(&value, bytes.data() + offset, width);
      switch (rng.NextBelow(4)) {
        case 0: value += 1; break;
        case 1: value -= 1; break;
        case 2: value = rng.NextBelow(2) == 0 ? 0 : ~uint64_t{0}; break;
        default: value = uint64_t{1} << rng.NextBelow(8 * width); break;
      }
      std::memcpy(bytes.data() + offset, &value, width);
    }
    WriteWholeFile(meta_path, bytes);
    (void)McIndex::ReadMeta(dir);
    ExerciseMcIndex(dir, source, stream.length());
    (void)McIndex::Extend(dir, source, stream.length());
    ExerciseMcIndex(dir, source, stream.length());
  }
}

TEST(RobustnessTest, StoredStreamOpenOnTruncations) {
  test::ScratchDir scratch("robust_stream");
  MarkovianStream stream = test::MakeBandedStream(50, 8, 8);
  std::string dir = scratch.Path("s");
  ASSERT_TRUE(WriteStream(dir, stream).ok());
  // Truncate the marginal file at many byte positions; opening or reading
  // must fail cleanly.
  auto original = File::OpenReadOnly(dir + "/marginals.rec");
  ASSERT_TRUE(original.ok());
  uint64_t full = (*original)->size();
  for (uint64_t cut : {uint64_t{0}, uint64_t{17}, full / 4, full / 2,
                       full - 100, full - 1}) {
    // Restore then truncate.
    std::string bytes(full, '\0');
    ASSERT_TRUE((*original)->ReadAt(0, full, bytes.data()).ok());
    {
      auto f = File::OpenOrCreate(dir + "/marginals.rec");
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE((*f)->Truncate(0).ok());
      ASSERT_TRUE((*f)->Append(bytes.substr(0, cut)).ok());
    }
    auto stored = StoredStream::Open(dir);
    if (stored.ok()) {
      Distribution marginal;
      for (uint64_t t = 0; t < (*stored)->length(); ++t) {
        (void)(*stored)->ReadMarginal(t, &marginal);
      }
    }
    // Restore for the next iteration.
    auto f = File::OpenOrCreate(dir + "/marginals.rec");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Truncate(0).ok());
    ASSERT_TRUE((*f)->Append(bytes).ok());
  }
}

// Applies `mutate` to page `id` of the pager file `path` and re-stamps the
// page CRC, so the damage reaches the decoder behind it.
template <typename Fn>
void MutatePage(const std::string& path, PageId id, Fn mutate) {
  auto pager = Pager::Open(path);
  CALDERA_CHECK_OK(pager.status());
  std::string page((*pager)->page_size(), '\0');
  CALDERA_CHECK_OK((*pager)->ReadPage(id, page.data()));
  mutate(&page);
  CALDERA_CHECK_OK((*pager)->WritePage(id, page.data()));
  CALDERA_CHECK_OK((*pager)->Sync());
}

// A stream marginal record that names a state outside the schema, planted
// behind a re-stamped page CRC in either layout, reads as Corruption: query
// code indexes per-state tables by these ids.
TEST(RobustnessTest, StreamMarginalIdOutsideDomain) {
  test::ScratchDir scratch("robust_marginal_id");
  constexpr uint32_t kDomain = 6;
  const MarkovianStream stream = test::MakeBandedStream(40, kDomain, 13);
  const uint64_t t = 20;
  const Distribution::Entry last = stream.marginal(t).entries().back();
  std::string entry;
  PutFixed32(last.value, &entry);
  PutDouble(last.prob, &entry);
  for (DiskLayout layout :
       {DiskLayout::kSeparated, DiskLayout::kCoClustered}) {
    SCOPED_TRACE(DiskLayoutName(layout));
    const std::string dir = scratch.Path(DiskLayoutName(layout));
    ASSERT_TRUE(WriteStream(dir, stream, layout).ok());
    const std::string path =
        dir + (layout == DiskLayout::kSeparated ? "/marginals.rec"
                                                : "/stream.rec");
    // The last entry keeps its place in the sorted order with any larger id.
    auto pager = Pager::Open(path);
    ASSERT_TRUE(pager.ok());
    const uint64_t pages = (*pager)->page_count();
    pager->reset();
    int planted = 0;
    for (PageId id = 1; id < pages && planted == 0; ++id) {
      MutatePage(path, id, [&](std::string* page) {
        const size_t at = page->find(entry);
        if (at == std::string::npos) return;
        const uint32_t outside = kDomain + 9;
        std::memcpy(page->data() + at, &outside, 4);
        ++planted;
      });
    }
    ASSERT_EQ(planted, 1) << "marginal entry not found";
    auto stored = StoredStream::Open(dir);
    ASSERT_TRUE(stored.ok());
    Distribution marginal;
    EXPECT_EQ((*stored)->ReadMarginal(t, &marginal).code(),
              StatusCode::kCorruption);
    EXPECT_TRUE((*stored)->ReadMarginal(t - 1, &marginal).ok());
    if (layout == DiskLayout::kCoClustered) {
      Cpt cpt;
      EXPECT_EQ((*stored)->ReadTransition(t, &cpt).code(),
                StatusCode::kCorruption);
    }
  }
}

// A reader refreshes over an append whose meta page or new directory
// entries were then damaged behind re-stamped CRCs, or whose meta shrank:
// Refresh returns a Status (Corruption for every meta damage), never UB,
// and the reader still serves its old records.
TEST(RobustnessTest, RecordFileRefreshOnMutatedAppend) {
  test::ScratchDir scratch("robust_refresh");
  const std::string path = scratch.Path("r.rec");
  auto record = [](int i) { return std::string(40, char('a' + i % 26)); };
  constexpr int kOld = 120;
  constexpr int kNew = 150;
  {
    auto writer = RecordFileWriter::Create(path, 512);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < kOld; ++i) {
      ASSERT_TRUE((*writer)->Append(record(i)).ok());
    }
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  const std::string old_data = ReadWholeFile(path);
  const std::string old_dir = ReadWholeFile(RecordFileDirPath(path));
  {
    auto writer = RecordFileWriter::OpenForAppend(path);
    ASSERT_TRUE(writer.ok());
    for (int i = kOld; i < kNew; ++i) {
      ASSERT_TRUE((*writer)->Append(record(i)).ok());
    }
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  const std::string new_data = ReadWholeFile(path);
  const std::string new_dir = ReadWholeFile(RecordFileDirPath(path));

  const std::string mutated = scratch.Path("mut.rec");
  const std::string mutated_dir = RecordFileDirPath(mutated);
  Rng rng(11);
  for (int round = 0; round < 150; ++round) {
    SCOPED_TRACE(round);
    WriteWholeFile(mutated, old_data);
    WriteWholeFile(mutated_dir, old_dir);
    auto reader = RecordFileReader::Open(mutated, 4);
    ASSERT_TRUE(reader.ok());
    std::string out;
    ASSERT_TRUE((*reader)->Get(kOld - 1, &out).ok());  // Caches the tail.
    WriteWholeFile(mutated, new_data);
    WriteWholeFile(mutated_dir, new_dir);
    const int kind = round % 3;
    if (kind == 0) {
      // One flipped byte of the meta's magic, count or byte total.
      MutatePage(mutated, 1, [&](std::string* page) {
        (*page)[rng.NextBelow(24)] ^= static_cast<char>(1 + rng.NextBelow(255));
      });
    } else if (kind == 1) {
      // One flipped byte of a new directory entry (entries 121..150; 63
      // to a 504-byte page).
      const uint64_t entry = kOld + 1 + rng.NextBelow(kNew - kOld);
      MutatePage(mutated_dir, 1 + entry * 8 / 504, [&](std::string* page) {
        (*page)[entry * 8 % 504 + rng.NextBelow(8)] ^=
            static_cast<char>(1 + rng.NextBelow(255));
      });
    } else {
      // A meta that shrank below what the reader already serves.
      const uint64_t count = rng.NextBelow(kOld);
      const uint64_t bytes = count * 40;
      MutatePage(mutated, 1, [&](std::string* page) {
        std::memcpy(page->data() + 8, &count, 8);
        std::memcpy(page->data() + 16, &bytes, 8);
      });
    }
    const Status refreshed = (*reader)->Refresh();
    if (kind != 1 || !refreshed.ok()) {
      EXPECT_EQ(refreshed.code(), StatusCode::kCorruption)
          << refreshed.ToString();
    }
    if (!refreshed.ok()) {
      EXPECT_EQ((*reader)->num_records(), uint64_t{kOld});
    }
    for (int i = 0; i < kOld; ++i) {
      ASSERT_TRUE((*reader)->Get(i, &out).ok()) << i;
      ASSERT_EQ(out, record(i)) << i;
    }
    // Whatever a refresh accepted is readable.
    for (uint64_t i = kOld; i < (*reader)->num_records(); ++i) {
      ASSERT_TRUE((*reader)->Get(i, &out).ok()) << i;
    }
  }
}

// An MC index handle refreshes over an Extend whose mc.meta was then
// damaged: one to three fields overwritten, as in McIndexOnMutatedFiles.
// Refresh returns a Status, and every span lookup after it one too.
TEST(RobustnessTest, McIndexRefreshOnMutatedMeta) {
  test::ScratchDir scratch("robust_mc_refresh");
  const MarkovianStream stream = test::MakeBandedStream(40, 6, 12);
  const TransitionSource source = [&stream](uint64_t t, Cpt* out) {
    *out = stream.transition(t);
    return Status::Ok();
  };
  const std::string old_index = scratch.Path("old");
  ASSERT_TRUE(McIndex::Build(old_index, source, 30, 6, {.alpha = 2}).ok());
  const std::string new_index = scratch.Path("new");
  std::filesystem::copy(old_index, new_index);
  ASSERT_TRUE(McIndex::Extend(new_index, source, 40).ok());  // Adds L5.
  const std::string meta = ReadWholeFile(new_index + "/mc.meta");
  const std::pair<size_t, size_t> fields[] = {
      {8, 4}, {12, 4}, {16, 8}, {24, 4}, {28, 8}, {36, 8}, {44, 8}, {52, 8}};
  const std::string dir = scratch.Path("mc");
  Rng rng(13);
  for (int round = 0; round < 90; ++round) {
    std::filesystem::remove_all(dir);
    std::filesystem::copy(old_index, dir);
    auto index = McIndex::Open(dir, source, /*pool_pages=*/4);
    ASSERT_TRUE(index.ok());
    Cpt out;
    ASSERT_TRUE((*index)->ComputeCpt(0, 29, &out).ok());  // Warms the pools.
    std::filesystem::remove_all(dir);
    std::filesystem::copy(new_index, dir);
    std::string bytes = meta;
    for (int n = 0; n < 1 + round % 3; ++n) {
      const auto [offset, width] = fields[rng.NextBelow(std::size(fields))];
      uint64_t value = 0;
      std::memcpy(&value, bytes.data() + offset, width);
      switch (rng.NextBelow(3)) {
        case 0: value -= 1; break;
        case 1: value = rng.NextBelow(2) == 0 ? 0 : ~uint64_t{0}; break;
        default: value = uint64_t{1} << rng.NextBelow(8 * width); break;
      }
      std::memcpy(bytes.data() + offset, &value, width);
    }
    WriteWholeFile(dir + "/mc.meta", bytes);
    (void)(*index)->Refresh();
    const uint64_t length = std::min<uint64_t>((*index)->stream_length(), 40);
    for (uint64_t from = 0; from + 1 < length; from += 3) {
      for (uint64_t to = from + 1; to < length; to += 2) {
        (void)(*index)->ComputeCpt(from, to, &out);
      }
    }
  }
}

}  // namespace
}  // namespace caldera
