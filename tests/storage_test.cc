#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/encoding.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection_file.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "storage/record_file.h"

namespace caldera {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("caldera_storage_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

// Appends `n` pages to `pager`, page k holding only the byte 'a' + k - 1.
void AppendPages(Pager* pager, int n) {
  for (int i = 0; i < n; ++i) {
    const std::string page(pager->page_size(), char('a' + i));
    ASSERT_TRUE(pager->AppendPage(page.data()).ok());
  }
}

TEST_F(StorageTest, FileWriteReadRoundTrip) {
  auto file = File::OpenOrCreate(Path("f"));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  EXPECT_EQ((*file)->size(), 11u);
  char buf[11];
  ASSERT_TRUE((*file)->ReadAt(0, 11, buf).ok());
  EXPECT_EQ(std::string(buf, 11), "hello world");
  ASSERT_TRUE((*file)->ReadAt(6, 5, buf).ok());
  EXPECT_EQ(std::string(buf, 5), "world");
}

TEST_F(StorageTest, FileShortReadIsError) {
  auto file = File::OpenOrCreate(Path("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abc").ok());
  char buf[10];
  Status st = (*file)->ReadAt(0, 10, buf);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(StorageTest, OpenReadOnlyMissingIsNotFound) {
  auto file = File::OpenReadOnly(Path("missing"));
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, FileTruncateShrinksAndGrows) {
  auto file = File::OpenOrCreate(Path("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123456789").ok());
  ASSERT_TRUE((*file)->Truncate(4).ok());
  EXPECT_EQ((*file)->size(), 4u);
  ASSERT_TRUE((*file)->Truncate(8).ok());
  char buf[8];
  ASSERT_TRUE((*file)->ReadAt(0, 8, buf).ok());
  EXPECT_EQ(std::string(buf, 4), "0123");
  EXPECT_EQ(std::string(buf + 4, 4), std::string(4, '\0'));
}

TEST_F(StorageTest, PagerAllocateReadWrite) {
  auto pager = Pager::Create(Path("p"), 512);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  EXPECT_EQ((*pager)->page_count(), 1u);  // Header page.
  EXPECT_EQ((*pager)->physical_page_size(), 512u);
  EXPECT_EQ((*pager)->page_size(), 512u - kPageTrailerSize);
  const size_t payload = (*pager)->page_size();
  auto p1 = (*pager)->AppendPage(std::string(payload, 'w').data());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ((*pager)->page_count(), 2u);
  std::vector<char> buf(payload);
  ASSERT_TRUE((*pager)->ReadPage(*p1, buf.data()).ok());
  EXPECT_EQ(std::string(buf.data(), payload), std::string(payload, 'w'));
  std::string data(payload, 'x');
  ASSERT_TRUE((*pager)->WritePage(*p1, data.data()).ok());
  ASSERT_TRUE((*pager)->ReadPage(*p1, buf.data()).ok());
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), payload), 0);
}

TEST_F(StorageTest, PagerRejectsBadPageSize) {
  EXPECT_EQ(Pager::Create(Path("p"), 100).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Pager::Create(Path("p"), 1000).status().code(),
            StatusCode::kInvalidArgument);
  // A power of two above the cap would size a 2 GiB page buffer.
  EXPECT_EQ(Pager::Create(Path("p"), 1u << 31).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, PagerRejectsOutOfRangeAccess) {
  auto pager = Pager::Create(Path("p"), 512);
  ASSERT_TRUE(pager.ok());
  char buf[512];
  EXPECT_EQ((*pager)->ReadPage(5, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*pager)->WritePage(0, buf).code(), StatusCode::kOutOfRange);
}

TEST_F(StorageTest, PagerPersistsAcrossReopen) {
  {
    auto pager = Pager::Create(Path("p"), 1024);
    ASSERT_TRUE(pager.ok());
    std::string data(1024, 'z');
    ASSERT_TRUE((*pager)->AppendPage(data.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  auto pager = Pager::Open(Path("p"));
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  EXPECT_EQ((*pager)->physical_page_size(), 1024u);
  EXPECT_EQ((*pager)->page_size(), 1024u - kPageTrailerSize);
  EXPECT_EQ((*pager)->page_count(), 2u);
  char buf[1024];
  ASSERT_TRUE((*pager)->ReadPage(1, buf).ok());
  EXPECT_EQ(buf[17], 'z');
}

TEST_F(StorageTest, PagerOpenRejectsGarbage) {
  {
    auto file = File::OpenOrCreate(Path("p"));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(std::string(2048, 'g')).ok());
  }
  EXPECT_EQ(Pager::Open(Path("p")).status().code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, PagerOpenMissingIsNotFoundAndDoesNotCreate) {
  EXPECT_EQ(Pager::Open(Path("missing")).status().code(),
            StatusCode::kNotFound);
  // Regression: Open used to create a zero-byte junk file before failing.
  EXPECT_FALSE(FileExists(Path("missing")));
}

TEST_F(StorageTest, PagerOpenRejectsOverflowingPageCount) {
  // A header whose page_count * page_size wraps to 0 mod 2^64. The
  // truncation check must use division so the wrap cannot slip past it; it
  // runs before the header checksum, so it is what rejects the file.
  {
    auto file = File::OpenOrCreate(Path("p"));
    ASSERT_TRUE(file.ok());
    std::string header = "CLDRPGR2";
    PutFixed32(512, &header);
    PutFixed64(uint64_t{1} << 55, &header);  // 2^55 * 512 == 2^64 == 0.
    header.resize(1024, '\0');
    ASSERT_TRUE((*file)->Append(header).ok());
  }
  Status st = Pager::Open(Path("p")).status();
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("truncated"), std::string::npos) << st.message();
}

TEST_F(StorageTest, PagerDetectsAnySingleBitFlipInDataPage) {
  {
    auto pager = Pager::Create(Path("p"), 512);
    ASSERT_TRUE(pager.ok());
    std::string data(504, '\0');
    for (size_t i = 0; i < data.size(); ++i) data[i] = char('a' + i % 26);
    ASSERT_TRUE((*pager)->AppendPage(data.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  // Flip every bit position (byte b, bit b%8) across the whole physical
  // page — payload, CRC, and zero padding alike — and require Corruption
  // naming the page.
  char buf[512];
  for (size_t byte = 0; byte < 512; ++byte) {
    auto file = File::OpenOrCreate(Path("p"));
    ASSERT_TRUE(file.ok());
    char c;
    ASSERT_TRUE((*file)->ReadAt(512 + byte, 1, &c).ok());
    c = char(c ^ (1u << (byte % 8)));
    ASSERT_TRUE((*file)->WriteAt(512 + byte, {&c, 1}).ok());

    auto pager = Pager::Open(Path("p"));
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    Status st = (*pager)->ReadPage(1, buf);
    ASSERT_EQ(st.code(), StatusCode::kCorruption) << "byte " << byte;
    EXPECT_NE(st.message().find("page 1"), std::string::npos) << st.message();

    c = char(c ^ (1u << (byte % 8)));  // Restore for the next iteration.
    ASSERT_TRUE((*file)->WriteAt(512 + byte, {&c, 1}).ok());
  }
}

TEST_F(StorageTest, PagerDetectsBitFlipInHeaderPage) {
  {
    auto pager = Pager::Create(Path("p"), 512);
    ASSERT_TRUE(pager.ok());
    AppendPages(pager->get(), 1);
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  // The header page is checksummed too: flips in its zero padding or
  // trailer (beyond the magic/size/count fields, which have their own
  // sanity checks) must fail the open.
  for (size_t byte : {25u, 200u, 504u, 508u, 511u}) {
    auto file = File::OpenOrCreate(Path("p"));
    ASSERT_TRUE(file.ok());
    char c;
    ASSERT_TRUE((*file)->ReadAt(byte, 1, &c).ok());
    char flipped = char(c ^ 1);
    ASSERT_TRUE((*file)->WriteAt(byte, {&flipped, 1}).ok());
    EXPECT_EQ(Pager::Open(Path("p")).status().code(), StatusCode::kCorruption)
        << "byte " << byte;
    ASSERT_TRUE((*file)->WriteAt(byte, {&c, 1}).ok());
  }
}

TEST_F(StorageTest, PagerChecksumBindsPageId) {
  // A misdirected write — page content landing at the wrong offset — is
  // caught because the CRC covers the page id, not just the payload.
  {
    auto pager = Pager::Create(Path("p"), 512);
    ASSERT_TRUE(pager.ok());
    std::string one(504, '1');
    std::string two(504, '2');
    ASSERT_TRUE((*pager)->AppendPage(one.data()).ok());
    ASSERT_TRUE((*pager)->AppendPage(two.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  {
    auto file = File::OpenOrCreate(Path("p"));
    ASSERT_TRUE(file.ok());
    char p1[512], p2[512];
    ASSERT_TRUE((*file)->ReadAt(512, 512, p1).ok());
    ASSERT_TRUE((*file)->ReadAt(1024, 512, p2).ok());
    ASSERT_TRUE((*file)->WriteAt(512, {p2, 512}).ok());
    ASSERT_TRUE((*file)->WriteAt(1024, {p1, 512}).ok());
  }
  auto pager = Pager::Open(Path("p"));
  ASSERT_TRUE(pager.ok());
  char buf[504];
  EXPECT_EQ((*pager)->ReadPage(1, buf).code(), StatusCode::kCorruption);
  EXPECT_EQ((*pager)->ReadPage(2, buf).code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, PagerRejectsLegacyV1Files) {
  // A well-formed file in the retired unchecksummed v1 format: 20-byte
  // header in page 0, one raw data page. Only v2 opens.
  {
    auto file = File::OpenOrCreate(Path("p"));
    ASSERT_TRUE(file.ok());
    std::string image = "CLDRPGR";
    image += '1';  // The v1 magic.
    PutFixed32(512, &image);
    PutFixed64(2, &image);
    image.resize(512, '\0');
    image.append(std::string(512, 'v'));
    ASSERT_TRUE((*file)->Append(image).ok());
  }
  Status st = Pager::Open(Path("p")).status();
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("magic"), std::string::npos) << st.message();
}

TEST_F(StorageTest, BufferPoolCachesPages) {
  auto pager = Pager::Create(Path("p"), 512);
  ASSERT_TRUE(pager.ok());
  AppendPages(pager->get(), 4);
  BufferPool pool(pager->get(), 8);
  for (int round = 0; round < 3; ++round) {
    for (PageId id = 1; id <= 4; ++id) {
      auto handle = pool.Fetch(id);
      ASSERT_TRUE(handle.ok());
      EXPECT_EQ(handle->page_id(), id);
      EXPECT_EQ(handle->data()[0], char('a' + id - 1));
    }
  }
  EXPECT_EQ(pool.stats().fetches, 12u);
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_EQ(pool.stats().hits, 8u);
}

TEST_F(StorageTest, BufferPoolEvictsLru) {
  auto pager = Pager::Create(Path("p"), 512);
  ASSERT_TRUE(pager.ok());
  AppendPages(pager->get(), 5);
  BufferPool pool(pager->get(), 2);
  ASSERT_TRUE(pool.Fetch(1).ok());
  ASSERT_TRUE(pool.Fetch(2).ok());
  ASSERT_TRUE(pool.Fetch(3).ok());  // Evicts page 1.
  EXPECT_EQ(pool.stats().evictions, 1u);
  ASSERT_TRUE(pool.Fetch(2).ok());  // Still resident.
  EXPECT_EQ(pool.stats().hits, 1u);
  ASSERT_TRUE(pool.Fetch(1).ok());  // Miss again.
  EXPECT_EQ(pool.stats().misses, 4u);
}

TEST_F(StorageTest, BufferPoolExhaustionWhenAllPinned) {
  auto pager = Pager::Create(Path("p"), 512);
  ASSERT_TRUE(pager.ok());
  AppendPages(pager->get(), 3);
  BufferPool pool(pager->get(), 2);
  auto h1 = pool.Fetch(1);
  auto h2 = pool.Fetch(2);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  auto h3 = pool.Fetch(3);
  EXPECT_EQ(h3.status().code(), StatusCode::kResourceExhausted);
  h1->Release();
  auto h3b = pool.Fetch(3);
  EXPECT_TRUE(h3b.ok());
}

TEST_F(StorageTest, RecordFileRoundTrip) {
  {
    auto writer = RecordFileWriter::Create(Path("r"), 512);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int i = 0; i < 100; ++i) {
      std::string record = "record-" + std::to_string(i) + "-" +
                           std::string(i % 37, 'x');
      auto id = (*writer)->Append(record);
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, static_cast<uint64_t>(i));
    }
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  auto reader = RecordFileReader::Open(Path("r"));
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->num_records(), 100u);
  std::string out;
  for (int i : {0, 1, 50, 99, 7}) {
    ASSERT_TRUE((*reader)->Get(i, &out).ok());
    EXPECT_EQ(out, "record-" + std::to_string(i) + "-" +
                       std::string(i % 37, 'x'));
  }
}

// A build writes each page once: the data and directory pages, plus each
// file's pager header twice (at Create and at Finalize) and the meta page
// twice (reserved at Create, final at Finalize).
TEST_F(StorageTest, RecordFileWriterWritesEachPageOnce) {
  const std::string path = Path("write_count.rec");
  uint64_t writes = 0;
  {
    ScopedFaultInjection inject("write_count.rec", FaultInjectionOptions{});
    auto writer = RecordFileWriter::Create(path, 512);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE((*writer)->Append(std::string(40 + i % 7, 'r')).ok());
    }
    ASSERT_TRUE((*writer)->Finalize().ok());
    ASSERT_TRUE((*writer)->Sync().ok());
    writes = inject.counters().writes;
  }
  auto data = Pager::Open(path);
  auto dir = Pager::Open(RecordFileDirPath(path));
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(dir.ok());
  const uint64_t data_pages = (*data)->page_count() - 2;
  const uint64_t dir_pages = (*dir)->page_count() - 1;
  EXPECT_GT(data_pages, 40u);
  EXPECT_GT(dir_pages, 7u);
  EXPECT_EQ(writes, data_pages + dir_pages + 2 * 2 + 2);
}

TEST_F(StorageTest, RecordFileHandlesEmptyRecordsAndSpanningRecords) {
  {
    auto writer = RecordFileWriter::Create(Path("r"), 512);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("").ok());
    ASSERT_TRUE((*writer)->Append(std::string(5000, 'b')).ok());  // ~10 pages
    ASSERT_TRUE((*writer)->Append("tail").ok());
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  auto reader = RecordFileReader::Open(Path("r"));
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Get(0, &out).ok());
  EXPECT_EQ(out, "");
  ASSERT_TRUE((*reader)->Get(1, &out).ok());
  EXPECT_EQ(out, std::string(5000, 'b'));
  ASSERT_TRUE((*reader)->Get(2, &out).ok());
  EXPECT_EQ(out, "tail");
}

// RecordFileReader::View on data pages 2-6 of 512 bytes (504 of payload
// behind each page's checksum trailer): records 0-2 lie
// inside page 2, record 3 straddles pages 2-3, record 4 is empty, records 5
// and 6 lie inside page 3, records 7 and 8 fill pages 4 and 5, and record 9
// sits on the partial tail page 6.
class RecordFileViewTest : public StorageTest {
 protected:
  static std::string Record(int i) {
    const size_t sizes[] = {100, 100, 100, 600, 0, 100, 8, 504, 504, 40};
    return std::string(sizes[i], static_cast<char>('a' + i));
  }

  void SetUp() override {
    StorageTest::SetUp();
    auto writer = RecordFileWriter::Create(Path("r"), 512);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*writer)->Append(Record(i)).ok());
    }
    ASSERT_TRUE((*writer)->Finalize().ok());
  }

  static bool InsidePage(std::string_view view, const char* page) {
    return view.data() >= page &&
           view.data() + view.size() <= page + 512 - kPageTrailerSize;
  }
};

TEST_F(RecordFileViewTest, RecordInsideOnePageViewsThePinnedFrame) {
  auto reader = RecordFileReader::Open(Path("r"));
  ASSERT_TRUE(reader.ok());
  std::string scratch;
  PageHandle pin;
  std::string_view view;
  for (int i : {0, 2, 5, 6, 7, 8}) {
    ASSERT_TRUE((*reader)->View(i, &scratch, &pin, &view).ok());
    EXPECT_EQ(view, Record(i));
    ASSERT_TRUE(pin.valid()) << i;
    EXPECT_TRUE(InsidePage(view, pin.data())) << i;
    EXPECT_TRUE(scratch.empty()) << "nothing was copied";
  }
}

TEST_F(RecordFileViewTest, StraddlingRecordIsCopiedIntoScratch) {
  auto reader = RecordFileReader::Open(Path("r"));
  ASSERT_TRUE(reader.ok());
  std::string scratch;
  PageHandle pin;
  std::string_view view;
  ASSERT_TRUE((*reader)->View(0, &scratch, &pin, &view).ok());
  ASSERT_TRUE(pin.valid());
  ASSERT_TRUE((*reader)->View(3, &scratch, &pin, &view).ok());
  EXPECT_EQ(view, Record(3));
  EXPECT_EQ(view.data(), scratch.data());
  EXPECT_FALSE(pin.valid()) << "the previous page's pin is released";
  std::string out;
  ASSERT_TRUE((*reader)->Get(3, &out).ok());
  EXPECT_EQ(out, Record(3));
}

TEST_F(RecordFileViewTest, TailPageAndEmptyRecordsAreServedFromScratch) {
  auto reader = RecordFileReader::Open(Path("r"));
  ASSERT_TRUE(reader.ok());
  std::string scratch = "stale";
  PageHandle pin;
  std::string_view view;
  ASSERT_TRUE((*reader)->View(9, &scratch, &pin, &view).ok());
  EXPECT_EQ(view, Record(9));
  EXPECT_EQ(view.data(), scratch.data()) << "the tail page is copied";
  EXPECT_FALSE(pin.valid());
  ASSERT_TRUE((*reader)->View(4, &scratch, &pin, &view).ok());
  EXPECT_TRUE(view.empty());
  EXPECT_FALSE(pin.valid());
  EXPECT_EQ((*reader)->stats().fetches, 0u) << "neither needed the pool";
  std::string out = "stale";
  ASSERT_TRUE((*reader)->Get(4, &out).ok());
  EXPECT_EQ(out, "");
  EXPECT_EQ((*reader)->View(10, &scratch, &pin, &view).code(),
            StatusCode::kOutOfRange);
}

// A held view pins its frame: in a one-page pool no other page can be
// read until it is released, and in a two-page pool other reads cycle
// through the free frame while the viewed bytes stay in place.
TEST_F(RecordFileViewTest, HeldPinIsNeverEvictedAndReleasedPinFreesItsFrame) {
  {
    auto reader = RecordFileReader::Open(Path("r"), /*pool_pages=*/1);
    ASSERT_TRUE(reader.ok());
    std::string scratch;
    PageHandle pin;
    std::string_view view;
    ASSERT_TRUE((*reader)->View(0, &scratch, &pin, &view).ok());
    std::string other;
    EXPECT_EQ((*reader)->Get(5, &other).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(view, Record(0));
    pin.Release();
    ASSERT_TRUE((*reader)->Get(5, &other).ok());
    EXPECT_EQ(other, Record(5));
  }
  auto reader = RecordFileReader::Open(Path("r"), /*pool_pages=*/2);
  ASSERT_TRUE(reader.ok());
  std::string scratch;
  PageHandle pin;
  std::string_view view;
  ASSERT_TRUE((*reader)->View(1, &scratch, &pin, &view).ok());
  const char* frame = pin.data();
  std::string other;
  for (int round = 0; round < 3; ++round) {
    for (int i : {7, 8, 5}) {
      ASSERT_TRUE((*reader)->Get(i, &other).ok());
      EXPECT_EQ(other, Record(i));
    }
  }
  EXPECT_GT((*reader)->stats().evictions, 0u);
  EXPECT_EQ(view, Record(1));
  EXPECT_EQ(pin.data(), frame);
  const uint64_t hits = (*reader)->stats().hits;
  std::string_view again;
  PageHandle second;
  ASSERT_TRUE((*reader)->View(0, &scratch, &second, &again).ok());
  EXPECT_EQ((*reader)->stats().hits, hits + 1) << "page 2 stayed resident";
  EXPECT_EQ(second.data(), frame);
}

TEST_F(StorageTest, RecordFileGetOutOfRange) {
  {
    auto writer = RecordFileWriter::Create(Path("r"), 512);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("x").ok());
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  auto reader = RecordFileReader::Open(Path("r"));
  ASSERT_TRUE(reader.ok());
  std::string out;
  EXPECT_EQ((*reader)->Get(1, &out).code(), StatusCode::kOutOfRange);
}

TEST_F(StorageTest, RecordFileEmptyFile) {
  {
    auto writer = RecordFileWriter::Create(Path("r"), 512);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  auto reader = RecordFileReader::Open(Path("r"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_records(), 0u);
}

TEST_F(StorageTest, RecordFileAppendAfterFinalizeFails) {
  auto writer = RecordFileWriter::Create(Path("r"), 512);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finalize().ok());
  EXPECT_EQ((*writer)->Append("late").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(StorageTest, RecordFileSequentialScanIsPageEfficient) {
  const int kRecords = 256;
  {
    auto writer = RecordFileWriter::Create(Path("r"), 4096);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE((*writer)->Append(std::string(64, 'a' + (i % 26))).ok());
    }
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  auto reader = RecordFileReader::Open(Path("r"), /*pool_pages=*/8);
  ASSERT_TRUE(reader.ok());
  std::string out;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE((*reader)->Get(i, &out).ok());
  }
  // 256 * 64B = 16KiB of data = 4 pages; sequential scan should miss only
  // ~once per page, not once per record.
  EXPECT_LE((*reader)->stats().misses, 8u);
  EXPECT_GE((*reader)->stats().hits, 240u);
}

TEST_F(StorageTest, RecordFileDetectsTruncatedDirectory) {
  {
    auto writer = RecordFileWriter::Create(Path("r"), 512);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*writer)->Append(std::string(100, 'q')).ok());
    }
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  // Corrupt the meta page's record count.
  {
    auto file = File::OpenOrCreate(Path("r"));
    ASSERT_TRUE(file.ok());
    std::string bogus;
    PutFixed64(999999, &bogus);
    ASSERT_TRUE((*file)->WriteAt(512 + 8, bogus).ok());
  }
  auto reader = RecordFileReader::Open(Path("r"));
  EXPECT_FALSE(reader.ok());
}

// Whole contents of the file at `path`.
std::string ReadAll(const std::string& path) {
  auto f = File::OpenReadOnly(path);
  EXPECT_TRUE(f.ok()) << path;
  if (!f.ok()) return "";
  std::string bytes((*f)->size(), '\0');
  EXPECT_TRUE((*f)->ReadAt(0, bytes.size(), bytes.data()).ok());
  return bytes;
}

// Rewrites page `id` of the pager file at `path` with `mutate` applied to
// its payload, re-stamping the checksum so only the record-file layer can
// notice.
template <typename Fn>
void RewritePage(const std::string& path, PageId id, Fn mutate) {
  auto pager = Pager::Open(path);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  std::vector<char> page((*pager)->page_size());
  ASSERT_TRUE((*pager)->ReadPage(id, page.data()).ok());
  mutate(page.data());
  ASSERT_TRUE((*pager)->WritePage(id, page.data()).ok());
  ASSERT_TRUE((*pager)->Sync().ok());
}

// A record file of `n` records of 40 bytes, page size 512.
void WriteRecords(const std::string& path, int n) {
  auto writer = RecordFileWriter::Create(path, 512);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE((*writer)->Append(std::string(40, char('a' + i % 26))).ok());
  }
  ASSERT_TRUE((*writer)->Finalize().ok());
}

TEST_F(StorageTest, PagerSyncSkipsFsyncWhenNothingWasWritten) {
  const std::string path = Path("sync_probe");
  {
    auto pager = Pager::Create(path, 512);
    ASSERT_TRUE(pager.ok());
    AppendPages(pager->get(), 1);
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  FaultInjectionOptions fault;
  fault.fail_sync = true;
  ScopedFaultInjection inject("sync_probe", fault);
  // A read-only handle has nothing to make durable: no fsync, no failure.
  auto reader = Pager::Open(path);
  ASSERT_TRUE(reader.ok());
  std::vector<char> page((*reader)->page_size());
  ASSERT_TRUE((*reader)->ReadPage(1, page.data()).ok());
  EXPECT_TRUE((*reader)->Sync().ok());
  // A handle that wrote must surface the failed fsync, and a later Sync
  // must call fsync again rather than report success without one.
  auto writer = Pager::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->WritePage(1, page.data()).ok());
  EXPECT_EQ((*writer)->Sync().code(), StatusCode::kIoError);
  EXPECT_EQ((*writer)->Sync().code(), StatusCode::kIoError);
  auto appender = Pager::Open(path);
  ASSERT_TRUE(appender.ok());
  ASSERT_TRUE((*appender)->AppendPage(page.data()).ok());
  EXPECT_EQ((*appender)->Sync().code(), StatusCode::kIoError);
}

TEST_F(StorageTest, BufferPoolEvictsAtExactCapacityWithLazyFrames) {
  auto pager = Pager::Create(Path("p"), 512);
  ASSERT_TRUE(pager.ok());
  const size_t payload = (*pager)->page_size();
  for (char c = 'a'; c <= 'e'; ++c) {
    ASSERT_TRUE((*pager)->AppendPage(std::string(payload, c).data()).ok());
  }
  BufferPool pool(pager->get(), 3);
  for (PageId id = 1; id <= 3; ++id) {
    auto handle = pool.Fetch(id);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->data()[payload - 1], char('a' + id - 1));
  }
  EXPECT_EQ(pool.stats().evictions, 0u);
  // The fourth distinct page evicts the least recently used one (page 1),
  // and the reused frame holds the new page's bytes.
  for (PageId id = 4; id <= 5; ++id) {
    auto handle = pool.Fetch(id);
    ASSERT_TRUE(handle.ok());
    EXPECT_EQ(handle->data()[0], char('a' + id - 1));
    EXPECT_EQ(handle->data()[payload - 1], char('a' + id - 1));
  }
  EXPECT_EQ(pool.stats().evictions, 2u);
  EXPECT_EQ(pool.stats().misses, 5u);
  auto again = pool.Fetch(3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  again->Release();
  auto evicted = pool.Fetch(1);
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted->data()[0], 'a');
  EXPECT_EQ(pool.stats().misses, 6u);
  EXPECT_EQ(pool.stats().evictions, 3u);
}

// Reopening for append after every few records must end byte-identical to
// a one-shot build, and each append may change bytes below the old end of
// a file only inside the ranges RecordFileAppendRegions reported.
TEST_F(StorageTest, RecordFileAppendMatchesOneShotBuildAndItsRegions) {
  std::vector<std::string> records;
  for (int i = 0; i < 150; ++i) {
    // Sizes cross and land exactly on 504-byte page boundaries.
    const size_t size = i % 9 == 0 ? 504 : (i * 37) % 300;
    records.push_back(std::string(size, char('A' + i % 26)));
  }
  const std::string whole = Path("whole");
  {
    auto writer = RecordFileWriter::Create(whole, 512);
    ASSERT_TRUE(writer.ok());
    for (const std::string& r : records) ASSERT_TRUE((*writer)->Append(r).ok());
    ASSERT_TRUE((*writer)->Finalize().ok());
  }
  const std::string grown = Path("grown");
  ASSERT_TRUE(RecordFileWriter::Create(grown, 512).value()->Finalize().ok());
  for (size_t next = 0; next < records.size();) {
    auto regions = RecordFileAppendRegions(grown);
    ASSERT_TRUE(regions.ok()) << regions.status().ToString();
    ASSERT_EQ(regions->size(), 2u);
    std::vector<std::string> before;
    for (const RecordFileAppendRegion& region : *regions) {
      before.push_back(ReadAll(region.path));
      EXPECT_EQ(before.back().size(), region.size) << region.path;
    }
    {
      auto writer = RecordFileWriter::OpenForAppend(grown);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      ASSERT_EQ((*writer)->num_records(), next);
      for (size_t k = 0; k < 1 + next % 3 && next < records.size(); ++k) {
        ASSERT_TRUE((*writer)->Append(records[next++]).ok());
      }
      ASSERT_TRUE((*writer)->Finalize().ok());
    }
    for (size_t f = 0; f < regions->size(); ++f) {
      const RecordFileAppendRegion& region = (*regions)[f];
      const std::string after = ReadAll(region.path);
      ASSERT_GE(after.size(), region.size);
      for (uint64_t b = 0; b < region.size; ++b) {
        if (after[b] == before[f][b]) continue;
        bool covered = false;
        for (const auto& [offset, length] : region.overwritten) {
          covered = covered || (b >= offset && b < offset + length);
        }
        ASSERT_TRUE(covered) << region.path << " byte " << b
                             << " changed outside the reported regions";
      }
    }
  }
  EXPECT_EQ(ReadAll(grown), ReadAll(whole));
  EXPECT_EQ(ReadAll(RecordFileDirPath(grown)), ReadAll(RecordFileDirPath(whole)));
  auto reader = RecordFileReader::Open(grown);
  ASSERT_TRUE(reader.ok());
  std::string out;
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE((*reader)->Get(i, &out).ok());
    EXPECT_EQ(out, records[i]);
  }
}

TEST_F(StorageTest, RecordFileRejectsLegacyV1Magic) {
  WriteRecords(Path("r"), 20);
  RewritePage(Path("r"), 1, [](char* page) { page[7] = '1'; });
  for (const Status& st : {RecordFileReader::Open(Path("r")).status(),
                           RecordFileWriter::OpenForAppend(Path("r")).status(),
                           RecordFileAppendRegions(Path("r")).status()}) {
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find("magic"), std::string::npos) << st.message();
  }
}

TEST_F(StorageTest, RecordFileDirectoryShorterThanCountIsCorruption) {
  WriteRecords(Path("r"), 200);
  // Well-checksummed meta pages claiming more records than the directory
  // holds: far more (past its pages) and a few more (inside its last page).
  for (uint64_t count : {uint64_t{400}, uint64_t{205}, ~uint64_t{0}}) {
    SCOPED_TRACE(count);
    RewritePage(Path("r"), 1,
                [&](char* page) { std::memcpy(page + 8, &count, 8); });
    for (const Status& st :
         {RecordFileReader::Open(Path("r")).status(),
          RecordFileWriter::OpenForAppend(Path("r")).status()}) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    }
  }
}

TEST_F(StorageTest, RecordFileDirectoryBitFlipIsCorruption) {
  WriteRecords(Path("r"), 200);
  const std::string dir = RecordFileDirPath(Path("r"));
  {
    auto f = File::Open(dir);
    ASSERT_TRUE(f.ok());
    char c;
    ASSERT_TRUE((*f)->ReadAt(512 + 100, 1, &c).ok());
    c = char(c ^ 4);
    ASSERT_TRUE((*f)->WriteAt(512 + 100, {&c, 1}).ok());
  }
  Status st = RecordFileReader::Open(Path("r")).status();
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  // A missing directory is NotFound, not a silently empty file.
  ASSERT_TRUE(RemoveFileIfExists(dir).ok());
  EXPECT_EQ(RecordFileReader::Open(Path("r")).status().code(),
            StatusCode::kNotFound);
}

// Appends `records` to the finalized record file at `path`.
void AppendRecords(const std::string& path,
                   const std::vector<std::string>& records) {
  auto writer = RecordFileWriter::OpenForAppend(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const std::string& r : records) ASSERT_TRUE((*writer)->Append(r).ok());
  ASSERT_TRUE((*writer)->Finalize().ok());
}

// Every record `reader` serves equals the one a fresh Open of `path` reads.
void ExpectReaderMatchesFreshOpen(RecordFileReader* reader,
                                  const std::string& path) {
  auto fresh = RecordFileReader::Open(path);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_EQ(reader->num_records(), (*fresh)->num_records());
  EXPECT_EQ(reader->data_bytes(), (*fresh)->data_bytes());
  std::string got, want;
  for (uint64_t i = 0; i < (*fresh)->num_records(); ++i) {
    ASSERT_TRUE(reader->Get(i, &got).ok()) << "record " << i;
    ASSERT_TRUE((*fresh)->Get(i, &want).ok()) << "record " << i;
    ASSERT_EQ(got, want) << "record " << i;
  }
}

TEST_F(StorageTest, RecordFileRefreshMatchesFreshOpenAfterAppend) {
  // 58 records of 40 bytes end mid data page, and their 59 directory
  // entries leave the first 63-entry directory page partial; the 10
  // records appended below fill that page and start the next.
  WriteRecords(Path("r"), 58);
  auto reader = RecordFileReader::Open(Path("r"), 8);
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Get(57, &out).ok());  // In the partial tail.
  std::vector<std::string> appended;
  for (int i = 0; i < 10; ++i) {
    appended.push_back(std::string(30 + i, char('A' + i)));
  }
  AppendRecords(Path("r"), appended);
  // Until it refreshes, the reader serves its snapshot.
  EXPECT_EQ((*reader)->num_records(), 58u);
  ASSERT_TRUE((*reader)->Get(57, &out).ok());
  EXPECT_EQ(out, std::string(40, char('a' + 57 % 26)));

  ASSERT_TRUE((*reader)->Refresh().ok());
  EXPECT_EQ((*reader)->num_records(), 68u);
  ExpectReaderMatchesFreshOpen(reader->get(), Path("r"));
  // With nothing appended a refresh changes nothing; later appends (a
  // record spanning pages, an empty one) refresh like the first.
  ASSERT_TRUE((*reader)->Refresh().ok());
  EXPECT_EQ((*reader)->num_records(), 68u);
  AppendRecords(Path("r"), {std::string(600, 'z'), ""});
  ASSERT_TRUE((*reader)->Refresh().ok());
  EXPECT_EQ((*reader)->num_records(), 70u);
  ExpectReaderMatchesFreshOpen(reader->get(), Path("r"));
}

// A reader keeps its snapshot's partial last data page in memory, so an
// append filling that page in place cannot tear what it reads. Garbage
// written over the page on disk stands in for a rewrite in flight.
TEST_F(StorageTest, ReaderServesItsSnapshotTailWhileAnAppendRewritesIt) {
  WriteRecords(Path("r"), 58);  // 2320 bytes: data page 6 is partial.
  auto reader = RecordFileReader::Open(Path("r"), 8);
  ASSERT_TRUE(reader.ok());
  {
    auto f = File::Open(Path("r"));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->WriteAt(6 * 512, std::string(512, '\xab')).ok());
  }
  std::string out;
  for (uint64_t i = 0; i < 58; ++i) {
    ASSERT_TRUE((*reader)->Get(i, &out).ok()) << "record " << i;
    EXPECT_EQ(out, std::string(40, char('a' + i % 26))) << "record " << i;
  }
  // A fresh open reads the torn page, and the Get that needs it fails.
  auto fresh = RecordFileReader::Open(Path("r"), 8);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)->Get(57, &out).code(), StatusCode::kCorruption);
}

TEST_F(StorageTest, RecordFileRefreshReadsOnlyTheNewDirectoryEntries) {
  WriteRecords(Path("r"), 2000);  // 2001 entries: 32 directory pages.
  auto reader = RecordFileReader::Open(Path("r"));
  ASSERT_TRUE(reader.ok());
  ScopedFaultInjection counted("r.dir", FaultInjectionOptions{});
  for (uint64_t round = 0; round < 3; ++round) {
    AppendRecords(Path("r"), {std::string(40, 'n')});
    const uint64_t reads_before = counted.counters().reads;
    ASSERT_TRUE((*reader)->Refresh().ok());
    // The header, plus the page of the one new entry; the first refresh
    // also opens the directory file (one more header read).
    EXPECT_EQ(counted.counters().reads - reads_before, round == 0 ? 3u : 2u);
    EXPECT_EQ((*reader)->num_records(), 2001 + round);
  }
  ExpectReaderMatchesFreshOpen(reader->get(), Path("r"));
}

}  // namespace
}  // namespace caldera
