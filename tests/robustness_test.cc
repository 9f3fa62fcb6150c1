// Robustness / fuzz-style tests: random bytes fed to every on-disk parser
// and to the query parser must produce Status errors (or benign successes),
// never crashes, hangs, or unbounded allocations.

#include <gtest/gtest.h>

#include <string>

#include "btree/btree.h"
#include "common/encoding.h"
#include "common/logging.h"
#include "common/rng.h"
#include "markov/cpt.h"
#include "markov/distribution.h"
#include "markov/schema.h"
#include "markov/stream_io.h"
#include "query/parser.h"
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
    Result<Distribution> parsed = Distribution::Parse(bytes, &offset);
    if (parsed.ok()) {
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
    Result<Cpt> parsed = Cpt::Parse(bytes, &offset);
    if (parsed.ok()) {
      EXPECT_LE(offset, bytes.size());
    }
  }
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
    (void)Distribution::Parse(mutated, &offset);

    mutated = cpt_bytes;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<char>(1 + rng.NextBelow(255));
    offset = 0;
    (void)Cpt::Parse(mutated, &offset);
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

// Opens the (possibly damaged) tree at `path` and drives every read and
// write path. Operations may fail with a Status but must not crash.
void ExerciseTree(const std::string& path, Rng* rng) {
  auto tree = BTree::Open(path);
  if (!tree.ok()) return;  // Rejected at open: fine.
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
  (void)(*tree)->Insert(key, "vvvv");
  (void)(*tree)->Flush();
}

TEST(RobustnessTest, BTreeOpenOnMutatedTreeFile) {
  test::ScratchDir scratch("robust_btree");
  const std::string path = scratch.Path("t.bt");
  {
    auto tree = BTree::Create(path, {8, 4}, 512);
    ASSERT_TRUE(tree.ok());
    std::string value(4, 'v');
    for (uint64_t i = 0; i < 500; ++i) {
      std::string key;
      EncodeU64(i, &key);
      ASSERT_TRUE((*tree)->Insert(key, value).ok());
    }
    ASSERT_TRUE((*tree)->Flush().ok());
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

}  // namespace
}  // namespace caldera
