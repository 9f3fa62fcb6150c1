#include <gtest/gtest.h>

#include "common/logging.h"
#include "index/mc_index.h"
#include "markov/stream_io.h"
#include "storage/file.h"
#include "test_util.h"

namespace caldera {
namespace {

// Reference: the product of per-step transitions computed directly from the
// in-memory stream.
Cpt DirectSpan(const MarkovianStream& stream, uint64_t from, uint64_t to) {
  Cpt result = stream.transition(from + 1);
  for (uint64_t t = from + 2; t <= to; ++t) {
    result =
        ComposeCpts(result, stream.transition(t), stream.schema().state_count());
  }
  return result;
}

void ExpectCptsNear(const Cpt& a, const Cpt& b, double tol = 1e-9) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    const Cpt::RowView row = a.row(r);
    const std::optional<Cpt::RowView> other = b.FindRow(row.src);
    ASSERT_TRUE(other.has_value()) << "missing row " << row.src;
    ASSERT_EQ(row.size(), other->size());
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row.dsts[i], other->dsts[i]);
      EXPECT_NEAR(row.probs[i], other->probs[i], tol);
    }
  }
}

class McIndexTest : public ::testing::Test {
 protected:
  McIndexTest() : scratch_("mc_index_test") {}

  // Builds stream, archives it, builds the MC index, opens both.
  void Setup(uint64_t length, uint32_t domain, uint64_t seed,
             const McIndexOptions& options) {
    stream_ = test::MakeValidStream(length, domain, seed);
    ASSERT_TRUE(WriteStream(scratch_.Path("stream"), stream_,
                            DiskLayout::kSeparated)
                    .ok());
    auto stored = StoredStream::Open(scratch_.Path("stream"));
    ASSERT_TRUE(stored.ok());
    stored_ = std::move(*stored);
    ASSERT_TRUE(McIndex::Build(stream_, scratch_.Path("mc"), options).ok());
    StoredStream* raw = stored_.get();
    auto index = McIndex::Open(
        scratch_.Path("mc"),
        [raw](uint64_t t, Cpt* out) { return raw->ReadTransition(t, out); });
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
  }

  test::ScratchDir scratch_;
  MarkovianStream stream_;
  std::unique_ptr<StoredStream> stored_;
  std::unique_ptr<McIndex> index_;
};

TEST_F(McIndexTest, ComputeCptMatchesDirectProductAlpha2) {
  Setup(64, 5, 21, {.alpha = 2});
  Cpt computed;
  for (auto [from, to] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 1}, {0, 63}, {0, 5}, {3, 17}, {7, 8}, {16, 48}, {1, 62},
           {31, 33}, {20, 21}, {0, 32}}) {
    ASSERT_TRUE(index_->ComputeCpt(from, to, &computed).ok());
    ExpectCptsNear(computed, DirectSpan(stream_, from, to));
  }
}

TEST_F(McIndexTest, ComputeCptMatchesDirectProductAlpha4) {
  Setup(100, 4, 22, {.alpha = 4});
  Cpt computed;
  for (auto [from, to] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 99}, {2, 50}, {16, 80}, {63, 65}, {0, 4}}) {
    ASSERT_TRUE(index_->ComputeCpt(from, to, &computed).ok());
    ExpectCptsNear(computed, DirectSpan(stream_, from, to));
  }
}

TEST_F(McIndexTest, ExhaustiveSmallStream) {
  Setup(20, 4, 23, {.alpha = 2});
  Cpt computed;
  for (uint64_t from = 0; from < 19; ++from) {
    for (uint64_t to = from + 1; to < 20; ++to) {
      ASSERT_TRUE(index_->ComputeCpt(from, to, &computed).ok());
      ExpectCptsNear(computed, DirectSpan(stream_, from, to));
    }
  }
}

TEST_F(McIndexTest, LookupCostIsLogarithmic) {
  Setup(1024, 4, 24, {.alpha = 2});
  Cpt computed;
  index_->ResetStats();
  ASSERT_TRUE(index_->ComputeCpt(0, 1023, &computed).ok());
  // <= 2 entries per level (log2(1024) = 10 levels) plus residue.
  EXPECT_LE(index_->entry_fetches() + index_->raw_fetches(), 22u);

  index_->ResetStats();
  ASSERT_TRUE(index_->ComputeCpt(1, 1022, &computed).ok());
  EXPECT_LE(index_->entry_fetches() + index_->raw_fetches(), 22u);
}

TEST_F(McIndexTest, MinLevelForcesRawResidues) {
  Setup(256, 4, 25, {.alpha = 2});
  Cpt computed;

  index_->ResetStats();
  ASSERT_TRUE(index_->ComputeCpt(0, 255, &computed).ok());
  uint64_t raw_all_levels = index_->raw_fetches();

  ASSERT_TRUE(index_->SetMinLevel(4).ok());  // Drop levels 1..3 (spans 2-8).
  index_->ResetStats();
  ASSERT_TRUE(index_->ComputeCpt(0, 255, &computed).ok());
  uint64_t raw_high_levels = index_->raw_fetches();
  ExpectCptsNear(computed, DirectSpan(stream_, 0, 255));
  EXPECT_GE(raw_high_levels, raw_all_levels);

  // An interval smaller than the lowest stored level must be answered by a
  // raw scan only.
  index_->ResetStats();
  ASSERT_TRUE(index_->ComputeCpt(10, 14, &computed).ok());
  EXPECT_EQ(index_->entry_fetches(), 0u);
  EXPECT_EQ(index_->raw_fetches(), 4u);
  ExpectCptsNear(computed, DirectSpan(stream_, 10, 14));
}

TEST_F(McIndexTest, MaxSpanCapsLevels) {
  Setup(512, 4, 26, {.alpha = 2, .max_span = 16});
  Cpt computed;
  // Long spans still compute correctly (by chaining top-level entries).
  ASSERT_TRUE(index_->ComputeCpt(0, 511, &computed).ok());
  ExpectCptsNear(computed, DirectSpan(stream_, 0, 511));
  // Number of levels is log2(16) = 4.
  EXPECT_EQ(index_->num_levels(), 4u);
}

TEST_F(McIndexTest, StoredBytesShrinkWithAlpha) {
  MarkovianStream stream = test::MakeValidStream(256, 4, 27);
  test::ScratchDir scratch2("mc_alpha_cmp");
  ASSERT_TRUE(
      WriteStream(scratch2.Path("s"), stream, DiskLayout::kSeparated).ok());
  auto stored = StoredStream::Open(scratch2.Path("s"));
  ASSERT_TRUE(stored.ok());
  StoredStream* raw = stored->get();
  TransitionSource source = [raw](uint64_t t, Cpt* out) {
    return raw->ReadTransition(t, out);
  };

  uint64_t bytes_by_alpha[2];
  int i = 0;
  for (uint32_t alpha : {2u, 8u}) {
    std::string dir = scratch2.Path("mc" + std::to_string(alpha));
    ASSERT_TRUE(McIndex::Build(stream, dir, {.alpha = alpha}).ok());
    auto index = McIndex::Open(dir, source);
    ASSERT_TRUE(index.ok());
    bytes_by_alpha[i++] = (*index)->StoredBytes();
  }
  EXPECT_GT(bytes_by_alpha[0], bytes_by_alpha[1]);
}

TEST_F(McIndexTest, InvalidArguments) {
  Setup(32, 4, 28, {.alpha = 2});
  Cpt computed;
  EXPECT_EQ(index_->ComputeCpt(5, 5, &computed).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index_->ComputeCpt(5, 3, &computed).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index_->ComputeCpt(0, 32, &computed).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index_->SetMinLevel(0).code(), StatusCode::kInvalidArgument);
  MarkovianStream tiny = test::MakeValidStream(1, 3, 29);
  EXPECT_EQ(McIndex::Build(tiny, scratch_.Path("mc2"), {}).code(),
            StatusCode::kInvalidArgument);
  MarkovianStream ok_stream = test::MakeValidStream(8, 3, 30);
  EXPECT_EQ(
      McIndex::Build(ok_stream, scratch_.Path("mc3"), {.alpha = 1}).code(),
      StatusCode::kInvalidArgument);
}

TEST_F(McIndexTest, OpenRequiresExactMetaSize) {
  Setup(32, 4, 32, {.alpha = 2});
  const std::string meta = scratch_.Path("mc") + "/mc.meta";
  std::string pristine;
  {
    auto f = File::OpenReadOnly(meta);
    ASSERT_TRUE(f.ok());
    pristine.resize((*f)->size());
    ASSERT_TRUE((*f)->ReadAt(0, pristine.size(), pristine.data()).ok());
  }
  // 28-byte prefix, one u64 count per level, 20-byte options trailer.
  ASSERT_EQ(pristine.size(), 28 + 8 * index_->num_levels() + 20);
  auto open_with = [&](const std::string& image) {
    auto f = File::OpenOrCreate(meta);
    CALDERA_CHECK_OK((*f)->Truncate(0));
    CALDERA_CHECK_OK((*f)->Append(image));
    StoredStream* raw = stored_.get();
    return McIndex::Open(scratch_.Path("mc"), [raw](uint64_t t, Cpt* out) {
             return raw->ReadTransition(t, out);
           }).status();
  };
  // Without the options trailer.
  EXPECT_EQ(open_with(pristine.substr(0, pristine.size() - 20)).code(),
            StatusCode::kCorruption);
  // One byte too many.
  EXPECT_EQ(open_with(pristine + '\0').code(), StatusCode::kCorruption);
  EXPECT_TRUE(open_with(pristine).ok());
}

TEST_F(McIndexTest, TruncatedIndexStaysClose) {
  MarkovianStream stream = test::MakeValidStream(128, 6, 31);
  test::ScratchDir scratch2("mc_trunc");
  ASSERT_TRUE(
      WriteStream(scratch2.Path("s"), stream, DiskLayout::kSeparated).ok());
  auto stored = StoredStream::Open(scratch2.Path("s"));
  ASSERT_TRUE(stored.ok());
  StoredStream* raw = stored->get();
  ASSERT_TRUE(McIndex::Build(stream, scratch2.Path("mc"),
                             {.alpha = 2, .truncate_eps = 1e-4})
                  .ok());
  auto index = McIndex::Open(scratch2.Path("mc"), [raw](uint64_t t, Cpt* out) {
    return raw->ReadTransition(t, out);
  });
  ASSERT_TRUE(index.ok());
  Cpt computed;
  ASSERT_TRUE((*index)->ComputeCpt(0, 127, &computed).ok());
  Cpt direct = DirectSpan(stream, 0, 127);
  for (size_t r = 0; r < direct.num_rows(); ++r) {
    const Cpt::RowView row = direct.row(r);
    for (size_t j = 0; j < row.size(); ++j) {
      EXPECT_NEAR(computed.Probability(row.src, row.dsts[j]), row.probs[j],
                  0.05);
    }
  }
}

}  // namespace
}  // namespace caldera
