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

TEST(RobustnessTest, BTreeOpenOnMutatedTreeFile) {
  test::ScratchDir scratch("robust_btree");
  // Build a real tree, then corrupt random page bytes and reopen/scan.
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
  Rng rng(6);
  for (int round = 0; round < 20; ++round) {
    // Copy + corrupt.
    std::string mutated = scratch.Path("mut.bt");
    {
      auto src = File::OpenReadOnly(path);
      ASSERT_TRUE(src.ok());
      std::string bytes((*src)->size(), '\0');
      ASSERT_TRUE((*src)->ReadAt(0, bytes.size(), bytes.data()).ok());
      for (int flips = 0; flips < 8; ++flips) {
        bytes[rng.NextBelow(bytes.size())] ^=
            static_cast<char>(1 + rng.NextBelow(255));
      }
      auto dst = File::OpenOrCreate(mutated);
      ASSERT_TRUE(dst.ok());
      ASSERT_TRUE((*dst)->Truncate(0).ok());
      ASSERT_TRUE((*dst)->Append(bytes).ok());
    }
    auto tree = BTree::Open(mutated);
    if (!tree.ok()) continue;  // Rejected at open: fine.
    // Operations may fail with Status but must not crash. (Checking
    // invariants exercises every node.)
    (void)(*tree)->CheckInvariants();
    auto cursor = (*tree)->SeekFirst();
    if (cursor.ok()) {
      int steps = 0;
      while (cursor->valid() && steps++ < 2000) {
        if (!cursor->Next().ok()) break;
      }
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
  // The unmutated copy must open and read back, or the rounds below would
  // only exercise an early failure.
  WriteWholeFile(mutated, data);
  WriteWholeFile(RecordFileDirPath(mutated), dir);
  {
    auto reader = RecordFileReader::Open(mutated);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_EQ((*reader)->num_records(), 200u);
    std::string out;
    ASSERT_TRUE((*reader)->Get(199, &out).ok());
    EXPECT_EQ(out, std::string(40, 'd'));
  }
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    std::string bytes[2] = {data, dir};
    for (int flips = 0; flips < 8; ++flips) {
      std::string& target = bytes[rng.NextBelow(2)];
      target[rng.NextBelow(target.size())] ^=
          static_cast<char>(1 + rng.NextBelow(255));
    }
    WriteWholeFile(mutated, bytes[0]);
    WriteWholeFile(RecordFileDirPath(mutated), bytes[1]);
    auto reader = RecordFileReader::Open(mutated);
    // Both files exist, so a failure is a decode error, never NotFound.
    EXPECT_NE(reader.status().code(), StatusCode::kNotFound)
        << reader.status().ToString();
    if (!reader.ok()) continue;
    std::string out;
    for (uint64_t i = 0; i < (*reader)->num_records(); ++i) {
      (void)(*reader)->Get(i, &out);  // Status errors are fine.
    }
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
