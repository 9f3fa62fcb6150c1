#include <gtest/gtest.h>

#include "markov/stream_io.h"
#include "storage/file.h"
#include "test_util.h"

namespace caldera {
namespace {

class StreamIoTest : public ::testing::TestWithParam<DiskLayout> {
 protected:
  StreamIoTest() : scratch_("stream_io_test") {}
  test::ScratchDir scratch_;
};

TEST_P(StreamIoTest, RoundTripPreservesStream) {
  MarkovianStream stream = test::MakeValidStream(120, 7, 42);
  std::string dir = scratch_.Path("s1");
  ASSERT_TRUE(WriteStream(dir, stream, GetParam()).ok());

  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ((*stored)->length(), stream.length());
  EXPECT_EQ((*stored)->layout(), GetParam());
  EXPECT_EQ((*stored)->schema(), stream.schema());

  Distribution marginal;
  Cpt transition;
  for (uint64_t t = 0; t < stream.length(); ++t) {
    ASSERT_TRUE((*stored)->ReadMarginal(t, &marginal).ok());
    EXPECT_EQ(marginal, stream.marginal(t)) << "t=" << t;
    if (t > 0) {
      ASSERT_TRUE((*stored)->ReadTransition(t, &transition).ok());
      EXPECT_EQ(transition, stream.transition(t)) << "t=" << t;
    }
  }
}

TEST_P(StreamIoTest, ReadTimestepReturnsBoth) {
  MarkovianStream stream = test::MakeValidStream(20, 5, 43);
  std::string dir = scratch_.Path("s2");
  ASSERT_TRUE(WriteStream(dir, stream, GetParam()).ok());
  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok());
  // A timestep's marginal and the transition into it; timestep 0 has no
  // transition.
  Distribution marginal;
  Cpt transition;
  ASSERT_TRUE((*stored)->ReadMarginal(0, &marginal).ok());
  EXPECT_EQ(marginal, stream.marginal(0));
  EXPECT_EQ((*stored)->ReadTransition(0, &transition).code(),
            StatusCode::kOutOfRange);
  ASSERT_TRUE((*stored)->ReadMarginal(7, &marginal).ok());
  EXPECT_EQ(marginal, stream.marginal(7));
  ASSERT_TRUE((*stored)->ReadTransition(7, &transition).ok());
  EXPECT_EQ(transition, stream.transition(7));
}

TEST_P(StreamIoTest, OutOfRangeReads) {
  MarkovianStream stream = test::MakeValidStream(10, 4, 44);
  std::string dir = scratch_.Path("s3");
  ASSERT_TRUE(WriteStream(dir, stream, GetParam()).ok());
  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok());
  Distribution marginal;
  Cpt transition;
  EXPECT_EQ((*stored)->ReadMarginal(10, &marginal).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*stored)->ReadTransition(0, &transition).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ((*stored)->ReadTransition(10, &transition).code(),
            StatusCode::kOutOfRange);
}

TEST_P(StreamIoTest, LoadStreamReconstructsExactly) {
  MarkovianStream stream = test::MakeValidStream(60, 6, 45);
  std::string dir = scratch_.Path("s4");
  ASSERT_TRUE(WriteStream(dir, stream, GetParam()).ok());
  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok());
  auto loaded = LoadStream(stored->get());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->Validate().ok());
  ASSERT_EQ(loaded->length(), stream.length());
  for (uint64_t t = 0; t < stream.length(); ++t) {
    EXPECT_EQ(loaded->marginal(t), stream.marginal(t));
    if (t > 0) {
      EXPECT_EQ(loaded->transition(t), stream.transition(t));
    }
  }
}

TEST_P(StreamIoTest, IoStatsCountPageTraffic) {
  MarkovianStream stream = test::MakeValidStream(200, 8, 46);
  std::string dir = scratch_.Path("s5");
  ASSERT_TRUE(WriteStream(dir, stream, GetParam()).ok());
  auto stored = StoredStream::Open(dir);
  ASSERT_TRUE(stored.ok());
  (*stored)->ResetStats();
  EXPECT_EQ((*stored)->IoStats().fetches, 0u);
  Distribution marginal;
  ASSERT_TRUE((*stored)->ReadMarginal(100, &marginal).ok());
  EXPECT_GT((*stored)->IoStats().fetches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Layouts, StreamIoTest,
                         ::testing::Values(DiskLayout::kSeparated,
                                           DiskLayout::kCoClustered),
                         [](const auto& info) {
                           return std::string(DiskLayoutName(info.param)) ==
                                          "separated"
                                      ? "Separated"
                                      : "CoClustered";
                         });

TEST(StreamIoLayoutTest, SeparatedCpTOnlyScanTouchesFewerPages) {
  test::ScratchDir scratch("stream_io_layout");
  MarkovianStream stream = test::MakeValidStream(500, 10, 47);
  ASSERT_TRUE(
      WriteStream(scratch.Path("sep"), stream, DiskLayout::kSeparated).ok());
  ASSERT_TRUE(
      WriteStream(scratch.Path("co"), stream, DiskLayout::kCoClustered).ok());
  auto sep = StoredStream::Open(scratch.Path("sep"));
  auto co = StoredStream::Open(scratch.Path("co"));
  ASSERT_TRUE(sep.ok());
  ASSERT_TRUE(co.ok());
  Cpt transition;
  (*sep)->ResetStats();
  (*co)->ResetStats();
  for (uint64_t t = 1; t < 500; ++t) {
    ASSERT_TRUE((*sep)->ReadTransition(t, &transition).ok());
    ASSERT_TRUE((*co)->ReadTransition(t, &transition).ok());
  }
  // A CPT-only scan on the separated layout skips all marginal bytes, so it
  // misses fewer pages than the interleaved layout.
  EXPECT_LT((*sep)->IoStats().misses, (*co)->IoStats().misses);
}

TEST(StreamIoFailureTest, OpenMissingDirectory) {
  auto stored = StoredStream::Open("/nonexistent/caldera/stream");
  EXPECT_FALSE(stored.ok());
}

TEST(StreamIoFailureTest, CorruptMetaRejected) {
  test::ScratchDir scratch("stream_io_corrupt");
  MarkovianStream stream = test::MakeValidStream(10, 4, 48);
  std::string dir = scratch.Path("s");
  ASSERT_TRUE(WriteStream(dir, stream, DiskLayout::kSeparated).ok());
  {
    auto f = File::OpenOrCreate(dir + "/meta.bin");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->WriteAt(0, "XXXXXXXX").ok());
  }
  EXPECT_EQ(StoredStream::Open(dir).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace caldera
