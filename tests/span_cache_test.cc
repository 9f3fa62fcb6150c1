#include "index/span_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "caldera/system.h"
#include "index/mc_index.h"
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

// The cache alone, and through the McIndex handle that owns it.
class SpanCptCacheTest : public ::testing::Test {
 protected:
  SpanCptCacheTest()
      : scratch_("mc_span_cache"), stream_(test::MakeBandedStream(70, 6, 21)) {}

  // Builds an alpha-2 index over the stream and opens a handle on it.
  std::unique_ptr<McIndex> BuildAndOpen() {
    const TransitionSource source = [this](uint64_t t, Cpt* out) {
      *out = stream_.transition(t);
      return Status::Ok();
    };
    const std::string dir = scratch_.Path("mc");
    std::filesystem::remove_all(dir);
    EXPECT_TRUE(McIndex::Build(dir, source, stream_.length(),
                               stream_.schema().state_count(), {.alpha = 2})
                    .ok());
    auto index = McIndex::Open(dir, source);
    EXPECT_TRUE(index.ok()) << index.status().ToString();
    return index.ok() ? std::move(*index) : nullptr;
  }

  test::ScratchDir scratch_;
  MarkovianStream stream_;
};

TEST_F(SpanCptCacheTest, HitAndMissAccounting) {
  SpanCptCache cache(1 << 20);
  EXPECT_EQ(cache.Get(0, 4), nullptr);
  auto cpt = MakeCpt(4);
  cache.Put(0, 4, cpt);
  EXPECT_EQ(cache.Get(0, 4).get(), cpt.get());
  EXPECT_EQ(cache.Get(0, 8), nullptr);
  EXPECT_EQ(cache.Get(1, 4), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), cpt->ByteSize());
}

TEST_F(SpanCptCacheTest, ByteBudgetEvictsLru) {
  auto cpt = MakeCpt(8);
  const size_t entry_bytes = cpt->ByteSize() + 128;  // Payload + overhead.
  const size_t budget = entry_bytes * 3;
  SpanCptCache cache(budget);
  cache.Put(0, 1, cpt);
  cache.Put(0, 2, MakeCpt(8));
  cache.Put(0, 3, MakeCpt(8));
  EXPECT_EQ(cache.entries(), 3u);

  // Touch (0,1) so (0,2) is the LRU victim.
  EXPECT_NE(cache.Get(0, 1), nullptr);
  cache.Put(0, 4, MakeCpt(8));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.Get(0, 2), nullptr) << "LRU entry must be evicted";
  EXPECT_NE(cache.Get(0, 1), nullptr);
  EXPECT_NE(cache.Get(0, 3), nullptr);
  EXPECT_NE(cache.Get(0, 4), nullptr);
  EXPECT_LE(cache.bytes(), budget);
}

TEST_F(SpanCptCacheTest, OversizedEntriesAreSkipped) {
  SpanCptCache cache(256);
  cache.Put(0, 1, MakeCpt(64));  // Far beyond the whole budget.
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.Get(0, 1), nullptr);
}

TEST_F(SpanCptCacheTest, ReplacementUpdatesBytes) {
  SpanCptCache cache(1 << 20);
  cache.Put(0, 1, MakeCpt(4));
  const size_t bytes_small = cache.bytes();
  cache.Put(0, 1, MakeCpt(16));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_GT(cache.bytes(), bytes_small);
}

// ClearSpanCache (what bench_paper runs before each timed query) empties
// the cache; the handle's traffic counters run on until ResetStats.
TEST_F(SpanCptCacheTest, ClearDropsEntriesKeepsTrafficCounters) {
  std::unique_ptr<McIndex> index = BuildAndOpen();
  ASSERT_NE(index, nullptr);
  auto cold = index->GetSpanCpt(0, 40);
  auto warm = index->GetSpanCpt(0, 40);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cold->get(), warm->get());
  EXPECT_EQ(index->span_cache_misses(), 1u);
  EXPECT_EQ(index->span_cache_hits(), 1u);

  index->ClearSpanCache();
  EXPECT_EQ(index->span_cache_misses(), 1u);
  EXPECT_EQ(index->span_cache_hits(), 1u);
  auto again = index->GetSpanCpt(0, 40);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->get(), cold->get());
  EXPECT_EQ(**again, **cold);
  EXPECT_EQ(index->span_cache_misses(), 2u);
  EXPECT_EQ(index->span_cache_hits(), 1u);
}

// A span composed from levels >= k is composed in another order than one
// composed from levels >= 1, so its answer can differ in its last bits,
// and the key (lo, hi) alone would serve the other table after SetMinLevel
// if the cache survived it. Span 0 -> 39 takes levels 5, 2 and 1 and one
// raw step; from levels >= 3 it takes level 5 and seven raw steps.
TEST_F(SpanCptCacheTest, SetMinLevelEmptiesTheCache) {
  std::unique_ptr<McIndex> index = BuildAndOpen();
  ASSERT_NE(index, nullptr);
  const uint64_t from = 0, to = 39;
  auto all_levels = index->GetSpanCpt(from, to);
  ASSERT_TRUE(all_levels.ok());
  ASSERT_GE(index->num_levels(), 3u);
  ASSERT_TRUE(index->SetMinLevel(3).ok());

  const uint64_t misses_before = index->span_cache_misses();
  auto high_levels = index->GetSpanCpt(from, to);
  ASSERT_TRUE(high_levels.ok());
  EXPECT_EQ(index->span_cache_misses(), misses_before + 1);
  EXPECT_EQ(index->span_cache_hits(), 0u);
  Cpt want;
  ASSERT_TRUE(index->ComputeCpt(from, to, &want).ok());
  EXPECT_EQ(**high_levels, want);
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
}

// A rebuild retires every handle, and the next query's new handle starts
// with an empty span cache.
TEST_F(SpanCacheSystemTest, RebuildIndexesInvalidates) {
  Caldera system(scratch_.Path("archive"));
  BuildArchive(&system);
  ExecOptions mc;
  mc.method = AccessMethodKind::kMcIndex;
  auto cold = system.Execute("bob", GappyQuery(), mc);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_GT(cold->stats.span_cache_misses, 0u);

  ASSERT_TRUE(system.RebuildIndexes("bob").ok());
  auto again = system.Execute("bob", GappyQuery(), mc);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->stats.span_cache_hits, 0u);
  EXPECT_EQ(again->stats.span_cache_misses, cold->stats.span_cache_misses);
}

// Threads that query one stream at once each borrow their own handle, so
// each run composes its spans on its own handle or finds them there: the
// signal never depends on which, and every span is looked up once.
TEST_F(SpanCacheSystemTest, ConcurrentMcQueriesMatchTheSequentialAnswer) {
  Caldera system(scratch_.Path("archive"));
  BuildArchive(&system);
  ExecOptions mc;
  mc.method = AccessMethodKind::kMcIndex;
  auto sequential = system.Execute("bob", GappyQuery(), mc);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
  const uint64_t spans = sequential->stats.span_cache_misses;
  ASSERT_GT(spans, 0u);

  constexpr int kThreads = 4;
  constexpr int kRuns = 10;
  std::vector<std::vector<QueryResult>> results(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int run = 0; run < kRuns; ++run) {
        auto r = system.Execute("bob", GappyQuery(), mc);
        if (r.ok()) results[i].push_back(std::move(*r));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every released handle stays idle for the next borrower, so at most
  // kThreads handles exist and each composes every span once: the
  // sequential run's handle plus at most kThreads - 1 new ones.
  uint64_t misses = 0;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(results[i].size(), static_cast<size_t>(kRuns));
    for (const QueryResult& r : results[i]) {
      misses += r.stats.span_cache_misses;
      EXPECT_EQ(r.stats.span_cache_hits + r.stats.span_cache_misses, spans);
      ASSERT_EQ(r.signal.size(), sequential->signal.size());
      for (size_t j = 0; j < r.signal.size(); ++j) {
        EXPECT_EQ(r.signal[j].time, sequential->signal[j].time);
        EXPECT_EQ(r.signal[j].prob, sequential->signal[j].prob);
      }
    }
  }
  EXPECT_LE(misses, (kThreads - 1) * spans);
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
