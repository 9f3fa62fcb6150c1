#include <gtest/gtest.h>

#include <filesystem>

#include "caldera/archive.h"
#include "common/encoding.h"
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
    result = ComposeCpts(result, stream.transition(t));
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

std::string ReadWholeFile(const std::string& path) {
  auto f = File::OpenReadOnly(path);
  CALDERA_CHECK_OK(f.status());
  std::string bytes((*f)->size(), '\0');
  CALDERA_CHECK_OK((*f)->ReadAt(0, bytes.size(), bytes.data()));
  return bytes;
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  auto f = File::OpenOrCreate(path);
  CALDERA_CHECK_OK(f.status());
  CALDERA_CHECK_OK((*f)->Truncate(0));
  CALDERA_CHECK_OK((*f)->Append(bytes));
}

// Overwrites the u32 at `offset` of the file at `path`.
void PatchFixed32(const std::string& path, size_t offset, uint32_t value) {
  std::string bytes = ReadWholeFile(path);
  std::string field;
  PutFixed32(value, &field);
  bytes.replace(offset, 4, field);
  WriteWholeFile(path, bytes);
}

// Every file of directory `a` has a byte-identical twin in `b`, and vice
// versa.
void ExpectSameFiles(const std::string& a, const std::string& b) {
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(a)) {
    const std::string name = entry.path().filename().string();
    ASSERT_TRUE(std::filesystem::exists(b + "/" + name)) << name;
    EXPECT_EQ(ReadWholeFile(entry.path().string()),
              ReadWholeFile(b + "/" + name))
        << name;
    ++files;
  }
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(b),
                          std::filesystem::directory_iterator()),
            static_cast<std::ptrdiff_t>(files));
}

// Reads every stored entry of every level of a StreamArchive-built index
// and demands it equal, byte for byte, the test's own left fold of the
// entry's children (raw transitions at level 1, the alpha entries below
// it above that). The level layout is recomputed here too. An in-memory
// Build must write the same files.
TEST(McIndexOracleTest, StoredEntriesEqualAnIndependentFold) {
  const MarkovianStream stream = test::MakeBandedStream(200, 10, 41);
  const uint64_t num_transitions = stream.length() - 1;
  test::ScratchDir scratch("mc_oracle");
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("s", stream).ok());
  const std::string dir = archive.StreamDir("s") + "/mc";
  for (uint32_t alpha : {2u, 3u, 4u}) {
    SCOPED_TRACE("alpha=" + std::to_string(alpha));
    const McIndexOptions options{.alpha = alpha};
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(archive.BuildMc("s", options).ok());
    auto meta = McIndex::ReadMeta(dir);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();

    std::vector<Cpt> below;
    uint64_t span = 1;
    uint32_t level = 1;
    for (; span * alpha <= num_transitions; ++level) {
      span *= alpha;
      const uint64_t count = num_transitions / span;
      ASSERT_LE(level, meta->level_counts.size());
      EXPECT_EQ(meta->level_counts[level - 1], count);
      auto reader = RecordFileReader::Open(
          dir + "/L" + std::to_string(level) + ".rec", 4);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      ASSERT_EQ((*reader)->num_records(), count);
      std::vector<Cpt> current;
      for (uint64_t k = 0; k < count; ++k) {
        auto child = [&](uint32_t i) -> const Cpt& {
          return level == 1 ? stream.transition(k * alpha + i + 1)
                            : below[k * alpha + i];
        };
        Cpt fold = child(0);
        for (uint32_t i = 1; i < alpha; ++i) {
          fold = ComposeCpts(fold, child(i));
        }
        current.push_back(std::move(fold));
        std::string want;
        current.back().AppendTo(&want);
        std::string got;
        ASSERT_TRUE((*reader)->Get(k, &got).ok());
        ASSERT_EQ(got, want) << "level " << level << " entry " << k;
      }
      below = std::move(current);
    }
    EXPECT_EQ(meta->level_counts.size(), level - 1);

    const std::string in_memory = scratch.Path("mem");
    std::filesystem::remove_all(in_memory);
    ASSERT_TRUE(McIndex::Build(stream, in_memory, options).ok());
    ExpectSameFiles(dir, in_memory);
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
  // 28-byte prefix, then one u64 count per level.
  ASSERT_EQ(pristine.size(), 28 + 8 * index_->num_levels());
  auto open_with = [&](const std::string& image) {
    auto f = File::OpenOrCreate(meta);
    CALDERA_CHECK_OK((*f)->Truncate(0));
    CALDERA_CHECK_OK((*f)->Append(image));
    StoredStream* raw = stored_.get();
    return McIndex::Open(scratch_.Path("mc"), [raw](uint64_t t, Cpt* out) {
             return raw->ReadTransition(t, out);
           }).status();
  };
  // One byte too few, and one too many.
  EXPECT_EQ(open_with(pristine.substr(0, pristine.size() - 1)).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(open_with(pristine + '\0').code(), StatusCode::kCorruption);
  // The older layout: magic CLDRMCI1 and a 20-byte options trailer
  // (truncate_eps f64, max_span u64, page_size u32), all at their defaults.
  std::string older = pristine;
  older[7] = '1';
  PutDouble(0.0, &older);
  PutFixed64(0, &older);
  PutFixed32(kDefaultPageSize, &older);
  EXPECT_EQ(open_with(older).code(), StatusCode::kCorruption);
  // The right size, but a level count off the layout of length and alpha.
  std::string miscounted = pristine;
  std::string count;
  PutFixed64(GetFixed64(pristine.data() + 28) - 1, &count);
  miscounted.replace(28, 8, count);
  EXPECT_EQ(open_with(miscounted).code(), StatusCode::kCorruption);
  EXPECT_TRUE(open_with(pristine).ok());
}

// mc.meta has no checksum, so its domain field may be anything. No
// allocation may be sized by it: the compose scratch is sized by the data.
TEST_F(McIndexTest, CorruptMetaDomainSizesNoAllocation) {
  Setup(64, 5, 33, {.alpha = 2});
  StoredStream* raw = stored_.get();
  TransitionSource source = [raw](uint64_t t, Cpt* out) {
    return raw->ReadTransition(t, out);
  };
  const std::string dir = scratch_.Path("mc_prefix");
  ASSERT_TRUE(McIndex::Build(dir, source, 40, 5, {.alpha = 2}).ok());
  // Domain field: bytes 24..27 of mc.meta.
  PatchFixed32(dir + "/mc.meta", 24, 0x7FFFFFFF);

  auto index = McIndex::Open(dir, source);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->domain_size(), 0x7FFFFFFFu);
  Cpt computed;
  for (auto [from, to] : std::vector<std::pair<uint64_t, uint64_t>>{
           {0, 39}, {3, 17}, {16, 32}, {7, 8}}) {
    ASSERT_TRUE((*index)->ComputeCpt(from, to, &computed).ok());
    ExpectCptsNear(computed, DirectSpan(stream_, from, to));
  }

  // Extending composes the new spine under the patched field too, and
  // lands on the same level files as a build at the new length.
  ASSERT_TRUE(McIndex::Extend(dir, source, 64).ok());
  for (uint32_t level = 1; level <= index_->num_levels(); ++level) {
    EXPECT_EQ(ReadWholeFile(McIndex::LevelPath(dir, level)),
              ReadWholeFile(McIndex::LevelPath(scratch_.Path("mc"), level)))
        << "level " << level;
  }
}

TEST(McIndexLayoutTest, LevelCountsNeverOverflow) {
  EXPECT_TRUE(McIndex::LevelCounts(1, {.alpha = 2}).empty());
  EXPECT_TRUE(McIndex::LevelCounts(100, {.alpha = 1}).empty());
  EXPECT_EQ(McIndex::LevelCounts(10, {.alpha = 3}),
            (std::vector<uint64_t>{3, 1}));
  // alpha^i stays below 2^64 however large the length and alpha.
  EXPECT_EQ(McIndex::LevelCounts(UINT64_MAX, {.alpha = 2}).size(), 63u);
  EXPECT_EQ(McIndex::LevelCounts(UINT64_MAX, {.alpha = UINT32_MAX}).size(), 2u);
}

// A handle refreshed after each one-timestep Extend answers every span
// bit-identically to a cold index built offline at the same length, both
// through ComputeCpt and through the span cache, which keeps the spans it
// composed before each append: the span 0 -> length-2 composed before an
// append is a cache hit after it, even when the append adds a level. At
// alpha = 2 the appends from 32 to 33 and from 64 to 65 timesteps each add
// a level.
TEST(McIndexRefreshTest, WarmAnswersEqualAColdBuildAfterEachAppend) {
  test::ScratchDir scratch("mc_refresh");
  const MarkovianStream stream = test::MakeBandedStream(70, 6, 21);
  const TransitionSource source = [&stream](uint64_t t, Cpt* out) {
    *out = stream.transition(t);
    return Status::Ok();
  };
  const McIndexOptions options{.alpha = 2};
  const std::string live = scratch.Path("live");
  ASSERT_TRUE(McIndex::Build(live, source, 30, 6, options).ok());
  auto warm = McIndex::Open(live, source, /*pool_pages=*/4);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*warm)->GetSpanCpt(0, 29).ok());
  uint32_t levels_added = 0;
  for (uint64_t length = 31; length <= stream.length(); ++length) {
    SCOPED_TRACE(length);
    const uint32_t levels_before = (*warm)->num_levels();
    ASSERT_TRUE(McIndex::Extend(live, source, length).ok());
    ASSERT_TRUE((*warm)->Refresh().ok());
    ASSERT_EQ((*warm)->stream_length(), length);
    levels_added += (*warm)->num_levels() - levels_before;

    const std::string cold_dir = scratch.Path("cold");
    std::filesystem::remove_all(cold_dir);
    ASSERT_TRUE(McIndex::Build(cold_dir, source, length, 6, options).ok());
    auto cold = McIndex::Open(cold_dir, source, /*pool_pages=*/4);
    ASSERT_TRUE(cold.ok());
    ASSERT_EQ((*warm)->num_levels(), (*cold)->num_levels());
    Cpt want, got;
    const uint64_t hits_before = (*warm)->span_cache_hits();
    auto kept = (*warm)->GetSpanCpt(0, length - 2);
    ASSERT_TRUE(kept.ok());
    ASSERT_EQ((*warm)->span_cache_hits(), hits_before + 1)
        << "span cached before the append was composed again";
    ASSERT_TRUE((*cold)->ComputeCpt(0, length - 2, &want).ok());
    ASSERT_EQ(**kept, want);
    for (uint64_t from = 0; from + 1 < length; from += 1 + from % 3) {
      for (uint64_t to = from + 1; to < length; ++to) {
        ASSERT_TRUE((*cold)->ComputeCpt(from, to, &want).ok());
        ASSERT_TRUE((*warm)->ComputeCpt(from, to, &got).ok());
        ASSERT_EQ(got, want) << from << " -> " << to;
        auto cached = (*warm)->GetSpanCpt(from, to);
        ASSERT_TRUE(cached.ok());
        ASSERT_EQ(**cached, want) << from << " -> " << to << " (cached)";
      }
    }
  }
  EXPECT_EQ(levels_added, 2u);
  EXPECT_GT((*warm)->span_cache_hits(), 0u);
}

}  // namespace
}  // namespace caldera
