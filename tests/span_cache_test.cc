#include "index/span_cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "caldera/system.h"
#include "markov/cpt.h"
#include "query/regular_query.h"
#include "test_util.h"

namespace caldera {
namespace {

std::shared_ptr<const Cpt> MakeCpt(uint32_t rows) {
  Cpt cpt;
  for (uint32_t r = 0; r < rows; ++r) cpt.SetRow(r, {{r, 1.0}});
  return std::make_shared<const Cpt>(std::move(cpt));
}

SpanKey Key(uint64_t lo, uint64_t hi) {
  return SpanKey{/*stream_id=*/1, /*epoch=*/0, lo, hi, /*min_level=*/1};
}

TEST(FingerprintTest, StableAndDistinct) {
  EXPECT_EQ(FingerprintString("abc"), FingerprintString("abc"));
  EXPECT_NE(FingerprintString("abc"), FingerprintString("abd"));
  EXPECT_NE(FingerprintString(""), 0u);
}

TEST(SpanCptCacheTest, HitAndMissAccounting) {
  SpanCptCache cache(1 << 20, /*num_shards=*/2);
  EXPECT_EQ(cache.Get(Key(0, 4)), nullptr);
  auto cpt = MakeCpt(4);
  cache.Put(Key(0, 4), cpt);
  EXPECT_EQ(cache.Get(Key(0, 4)).get(), cpt.get());
  EXPECT_EQ(cache.Get(Key(0, 8)), nullptr);

  SpanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, cpt->ByteSize());
}

TEST(SpanCptCacheTest, EveryKeyComponentDisambiguates) {
  SpanCptCache cache(1 << 20);
  cache.Put(Key(0, 4), MakeCpt(2));
  SpanKey base = Key(0, 4);
  for (SpanKey variant :
       {SpanKey{2, 0, 0, 4, 1}, SpanKey{1, 1, 0, 4, 1}, SpanKey{1, 0, 1, 4, 1},
        SpanKey{1, 0, 0, 5, 1}, SpanKey{1, 0, 0, 4, 2}}) {
    EXPECT_FALSE(variant == base);
    EXPECT_EQ(cache.Get(variant), nullptr);
  }
  EXPECT_NE(cache.Get(base), nullptr);
}

TEST(SpanCptCacheTest, ByteBudgetEvictsLru) {
  // Single shard so the LRU order is global and deterministic.
  auto cpt = MakeCpt(8);
  const size_t entry_bytes = cpt->ByteSize() + 128;  // Payload + overhead.
  SpanCptCache cache(entry_bytes * 3, /*num_shards=*/1);
  cache.Put(Key(0, 1), cpt);
  cache.Put(Key(0, 2), MakeCpt(8));
  cache.Put(Key(0, 3), MakeCpt(8));
  EXPECT_EQ(cache.stats().entries, 3u);

  // Touch (0,1) so (0,2) is the LRU victim.
  EXPECT_NE(cache.Get(Key(0, 1)), nullptr);
  cache.Put(Key(0, 4), MakeCpt(8));
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.Get(Key(0, 2)), nullptr) << "LRU entry must be evicted";
  EXPECT_NE(cache.Get(Key(0, 1)), nullptr);
  EXPECT_NE(cache.Get(Key(0, 4)), nullptr);
  EXPECT_LE(cache.stats().bytes, cache.byte_budget());
}

TEST(SpanCptCacheTest, OversizedEntriesAreSkipped) {
  SpanCptCache cache(256, /*num_shards=*/1);
  cache.Put(Key(0, 1), MakeCpt(64));  // Far beyond the shard budget.
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Get(Key(0, 1)), nullptr);
}

TEST(SpanCptCacheTest, ReplacementUpdatesBytes) {
  SpanCptCache cache(1 << 20, /*num_shards=*/1);
  cache.Put(Key(0, 1), MakeCpt(4));
  uint64_t bytes_small = cache.stats().bytes;
  cache.Put(Key(0, 1), MakeCpt(16));
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GT(cache.stats().bytes, bytes_small);
}

TEST(SpanCptCacheTest, ClearDropsEntriesKeepsTrafficCounters) {
  SpanCptCache cache(1 << 20);
  cache.Put(Key(0, 1), MakeCpt(4));
  EXPECT_NE(cache.Get(Key(0, 1)), nullptr);
  cache.Clear();
  SpanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.Get(Key(0, 1)), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end through the Caldera facade.

class SpanCacheSystemTest : public ::testing::Test {
 protected:
  SpanCacheSystemTest() : scratch_("span_cache_test") {}

  void BuildArchive(Caldera* system) {
    // Sparse random stream: supports churn per timestep, so the relevant
    // set for the query below has many gap >= 2 holes for the MC method to
    // span (verified by the cold-run miss assertion).
    MarkovianStream stream = test::MakeValidStream(400, 40, 7, 0.05);
    ASSERT_TRUE(system->archive()->Init().ok());
    ASSERT_TRUE(system->archive()
                    ->CreateStream("bob", stream, DiskLayout::kSeparated)
                    .ok());
    ASSERT_TRUE(system->archive()->BuildBtc("bob", 0).ok());
    ASSERT_TRUE(system->archive()->BuildMc("bob", {}).ok());
  }

  static RegularQuery GappyQuery() {
    // Variable-length query; its relevant-timestep set (supports of s3 and
    // s17) leaves gap >= 2 holes the MC method must span.
    Predicate target = Predicate::Equality(0, 17, "s17");
    std::vector<QueryLink> links;
    links.push_back(QueryLink{std::nullopt, Predicate::Equality(0, 3, "s3")});
    links.push_back(QueryLink{Predicate::Not(target), target});
    return RegularQuery("gappy", links);
  }

  test::ScratchDir scratch_;
};

TEST_F(SpanCacheSystemTest, RepeatedQueryHitsCache) {
  Caldera system(scratch_.Path("archive"));
  BuildArchive(&system);
  ExecOptions mc;
  mc.method = AccessMethodKind::kMcIndex;

  auto cold = system.Execute("bob", GappyQuery(), mc);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->stats.span_cache_hits, 0u);
  ASSERT_GT(cold->stats.span_cache_misses, 0u)
      << "query must contain spanning (gap >= 2) steps for this test";

  auto warm = system.Execute("bob", GappyQuery(), mc);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.span_cache_hits, cold->stats.span_cache_misses)
      << "every composed span must be served from cache on the second run";
  EXPECT_EQ(warm->stats.span_cache_misses, 0u);
  ASSERT_EQ(warm->signal.size(), cold->signal.size());
  for (size_t i = 0; i < warm->signal.size(); ++i) {
    EXPECT_EQ(warm->signal[i].time, cold->signal[i].time);
    EXPECT_EQ(warm->signal[i].prob, cold->signal[i].prob)
        << "cached spans must reproduce the signal bit-for-bit";
  }
  EXPECT_GT(system.span_cache()->stats().entries, 0u);
}

TEST_F(SpanCacheSystemTest, RebuildIndexesInvalidates) {
  Caldera system(scratch_.Path("archive"));
  BuildArchive(&system);
  ExecOptions mc;
  mc.method = AccessMethodKind::kMcIndex;
  ASSERT_TRUE(system.Execute("bob", GappyQuery(), mc).ok());
  ASSERT_GT(system.span_cache()->stats().entries, 0u);

  ASSERT_TRUE(system.RebuildIndexes("bob").ok());
  EXPECT_EQ(system.span_cache()->stats().entries, 0u)
      << "RebuildIndexes must clear the span cache";

  // Epoch changed: the next run re-composes (misses) even if Clear had not
  // reclaimed the entries.
  auto again = system.Execute("bob", GappyQuery(), mc);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->stats.span_cache_hits, 0u);
  EXPECT_GT(again->stats.span_cache_misses, 0u);
}

TEST_F(SpanCacheSystemTest, SemiIndependentNeverProbesSpanCache) {
  Caldera system(scratch_.Path("archive"));
  BuildArchive(&system);
  ExecOptions semi;
  semi.method = AccessMethodKind::kSemiIndependent;
  auto cold = system.Execute("bob", GappyQuery(), semi);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Warm the cache with every gap span of the query.
  ExecOptions mc;
  mc.method = AccessMethodKind::kMcIndex;
  auto exact = system.Execute("bob", GappyQuery(), mc);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_GT(exact->stats.span_cache_misses, 0u);

  // The approximation stays the approximation: no cache traffic, and the
  // signal does not depend on what the cache holds.
  auto warm = system.Execute("bob", GappyQuery(), semi);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stats.span_cache_hits, 0u);
  EXPECT_EQ(warm->stats.span_cache_misses, 0u);
  ASSERT_EQ(warm->signal.size(), cold->signal.size());
  for (size_t i = 0; i < warm->signal.size(); ++i) {
    EXPECT_EQ(warm->signal[i].time, cold->signal[i].time);
    EXPECT_EQ(warm->signal[i].prob, cold->signal[i].prob)
        << "semi-independent output must not depend on the span cache";
  }
}

}  // namespace
}  // namespace caldera
