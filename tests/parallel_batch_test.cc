// Tests for the parallel batch execution engine: the facade's
// epoch-versioned handle lending, and ExecuteBatch's determinism across
// thread counts.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "caldera/batch.h"
#include "common/logging.h"
#include "test_util.h"

namespace caldera {
namespace {

RegularQuery Fixed(uint32_t a, uint32_t b) {
  return RegularQuery::Sequence(
      "f", {Predicate::Equality(0, a, "a"), Predicate::Equality(0, b, "b")});
}

// ---------------------------------------------------------------------------
// Stream-handle lending
// ---------------------------------------------------------------------------

class ParallelBatchTest : public ::testing::Test {
 protected:
  ParallelBatchTest()
      : scratch_("parallel_batch_test"), system_(scratch_.Path("archive")) {}

  void AddStream(const std::string& name, uint64_t seed, bool index) {
    MarkovianStream stream = test::MakeBandedStream(200, 12, seed);
    CALDERA_CHECK_OK(system_.archive()->CreateStream(name, stream));
    if (index) {
      CALDERA_CHECK_OK(system_.archive()->BuildBtc(name, 0));
      CALDERA_CHECK_OK(system_.archive()->BuildBtp(name, 0));
    }
  }

  test::ScratchDir scratch_;
  Caldera system_;
};

// Reads one page through `handle`. Its page counters then stay nonzero
// until the next ResetStats, which tells a warm handle from a fresh one
// even if the fresh one reuses a freed handle's address.
void Touch(ArchivedStream* handle) {
  Distribution marginal;
  CALDERA_CHECK_OK(handle->stream()->ReadMarginal(0, &marginal));
}

uint64_t StreamFetches(ArchivedStream* handle) {
  return handle->stream()->IoStats().fetches;
}

TEST_F(ParallelBatchTest, HandlesHeldAtOnceAreDistinct) {
  AddStream("s", 1, true);
  auto a = system_.GetStream("s");
  auto b = system_.GetStream("s");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());
}

// Every released handle is kept: two handles held at once and released
// are both lent again, warm, to the next two borrowers.
TEST_F(ParallelBatchTest, ReleasedHandleIsLentAgainWarm) {
  AddStream("s", 1, true);
  auto a = system_.GetStream("s");
  auto b = system_.GetStream("s");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const std::set<ArchivedStream*> released = {a->get(), b->get()};
  Touch(a->get());
  Touch(b->get());
  a->reset();
  b->reset();
  auto c = system_.GetStream("s");
  auto d = system_.GetStream("s");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((std::set<ArchivedStream*>{c->get(), d->get()}), released);
  EXPECT_GT(StreamFetches(c->get()), 0u);
  EXPECT_GT(StreamFetches(d->get()), 0u);
}

TEST_F(ParallelBatchTest, HandleReleasedAfterInvalidationIsNotLentAgain) {
  AddStream("s", 1, true);
  auto a = system_.GetStream("s");
  ASSERT_TRUE(a.ok());
  Touch(a->get());
  system_.InvalidateStreams();
  a->reset();
  auto b = system_.GetStream("s");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(StreamFetches(b->get()), 0u);
}

TEST_F(ParallelBatchTest, HandleReleasedAfterFacadeIsDestroyedIsSafe) {
  AddStream("s", 1, true);
  std::shared_ptr<ArchivedStream> survivor;
  {
    Caldera facade(scratch_.Path("archive"));
    auto lent = facade.GetStream("s");
    ASSERT_TRUE(lent.ok());
    survivor = std::move(*lent);
  }
  EXPECT_EQ(survivor->length(), 200u);
  Touch(survivor.get());
  survivor.reset();  // Finds no facade to return to: destroyed.
}

TEST_F(ParallelBatchTest, IdleHandleIsLentOnlyAtItsPoolSize) {
  AddStream("s", 1, true);
  const RegularQuery query = Fixed(4, 5);
  const ExecOptions big{.method = AccessMethodKind::kScan, .pool_pages = 256};
  const ExecOptions small{.method = AccessMethodKind::kScan, .pool_pages = 4};
  ASSERT_TRUE(system_.Execute("s", query, big).ok());
  auto after_big = system_.Execute("s", query, small);
  Caldera fresh(scratch_.Path("archive"));
  auto cold = fresh.Execute("s", query, small);
  ASSERT_TRUE(after_big.ok());
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->stats.stream_io.misses, 0u);
  EXPECT_EQ(after_big->stats.stream_io.misses, cold->stats.stream_io.misses);
}

TEST_F(ParallelBatchTest, InvalidationBumpsEpochAndKeepsOldHandlesAlive) {
  AddStream("s", 2, true);
  auto old_handle = system_.GetStream("s");
  ASSERT_TRUE(old_handle.ok());
  uint64_t before = system_.stream_epoch();
  EXPECT_EQ(system_.InvalidateStreams(), before + 1);
  EXPECT_EQ(system_.stream_epoch(), before + 1);
  auto new_handle = system_.GetStream("s");
  ASSERT_TRUE(new_handle.ok());
  EXPECT_NE(new_handle->get(), old_handle->get());
  // The pre-invalidation handle is still fully usable.
  EXPECT_EQ((*old_handle)->length(), 200u);
  EXPECT_NE((*old_handle)->btc(0), nullptr);
}

TEST_F(ParallelBatchTest, ConcurrentGetStreamIsSafe) {
  for (int i = 0; i < 4; ++i) {
    AddStream("tag" + std::to_string(i), 10 + i, true);
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([this, t, &failures] {
      for (int i = 0; i < 20; ++i) {
        auto handle =
            system_.GetStream("tag" + std::to_string((t + i) % 4));
        if (!handle.ok() || (*handle)->length() != 200) failures.fetch_add(1);
        if (i == 10 && t == 0) system_.InvalidateStreams();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Invalidation replaces no bytes a lent handle reads, so it never reruns a
// query: scans finish while another thread invalidates every millisecond,
// with the signal of an undisturbed run. A watchdog turns a livelocked
// query into a failure instead of a hung test.
TEST_F(ParallelBatchTest, QueriesFinishUnderConstantInvalidation) {
  constexpr int kQueries = 5;
  constexpr auto kDeadline = std::chrono::seconds(60);
  CALDERA_CHECK_OK(system_.archive()->CreateStream(
      "long", test::MakeBandedStream(2000, 64, 61)));
  const RegularQuery query = Fixed(3, 4);
  const ExecOptions scan{.method = AccessMethodKind::kScan};
  auto undisturbed = system_.Execute("long", query, scan);
  ASSERT_TRUE(undisturbed.ok()) << undisturbed.status().ToString();

  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(done_mu);
    if (!done_cv.wait_for(lock, kDeadline, [&] { return done; })) {
      std::fprintf(stderr,
                   "QueriesFinishUnderConstantInvalidation: %d scans did not "
                   "finish within 60 s under invalidation every 1 ms\n",
                   kQueries);
      std::_Exit(1);
    }
  });
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> invalidations{0};
  std::thread invalidator([&] {
    while (!stop.load()) {
      system_.InvalidateStreams();
      invalidations.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int i = 0; i < kQueries; ++i) {
    auto result = system_.Execute("long", query, scan);
    if (!result.ok()) {
      ADD_FAILURE() << result.status().ToString();
      continue;
    }
    EXPECT_EQ(result->signal, undisturbed->signal) << i;
  }
  stop.store(true);
  invalidator.join();
  {
    std::lock_guard<std::mutex> lock(done_mu);
    done = true;
  }
  done_cv.notify_one();
  watchdog.join();
  EXPECT_GT(invalidations.load(), 0u);
}

// ---------------------------------------------------------------------------
// ExecuteBatch determinism across thread counts
// ---------------------------------------------------------------------------

TEST_F(ParallelBatchTest, ThreadCountDoesNotChangeResults) {
  for (int i = 0; i < 6; ++i) {
    AddStream("tag" + std::to_string(i), 100 + i, true);
  }
  RegularQuery query = Fixed(4, 5);

  BatchOptions sequential;
  sequential.num_threads = 1;
  auto baseline = ExecuteBatch(&system_, query, sequential);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->streams.size(), 6u);
  ExecStats baseline_stats = baseline->TotalStats();
  EXPECT_GT(baseline_stats.reg_updates, 0u);

  for (size_t num_threads : {2u, 8u}) {
    BatchOptions parallel;
    parallel.num_threads = num_threads;
    auto batch = ExecuteBatch(&system_, query, parallel);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->streams.size(), baseline->streams.size());
    for (size_t i = 0; i < batch->streams.size(); ++i) {
      // Same streams in the same order with byte-identical signals.
      EXPECT_EQ(batch->streams[i].stream, baseline->streams[i].stream);
      EXPECT_EQ(batch->streams[i].result.method,
                baseline->streams[i].result.method);
      EXPECT_EQ(batch->streams[i].result.signal,
                baseline->streams[i].result.signal);
    }
    // Identical aggregate work, rolled up thread-safely.
    EXPECT_EQ(batch->TotalStats().reg_updates, baseline_stats.reg_updates);
  }
}

TEST_F(ParallelBatchTest, FallbackToScanUnderContention) {
  // Half the fleet is missing the B+ tree index; with fallback enabled the
  // parallel run must degrade those streams to scans exactly like the
  // sequential run does.
  for (int i = 0; i < 8; ++i) {
    AddStream("tag" + std::to_string(i), 200 + i, /*index=*/i % 2 == 0);
  }
  RegularQuery query = Fixed(3, 4);
  BatchOptions options;
  options.exec.method = AccessMethodKind::kBTree;
  options.exec.fallback_to_scan = true;

  options.num_threads = 1;
  auto baseline = ExecuteBatch(&system_, query, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  options.num_threads = 8;
  auto parallel = ExecuteBatch(&system_, query, options);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(parallel->streams.size(), 8u);
  for (size_t i = 0; i < parallel->streams.size(); ++i) {
    const BatchStreamResult& s = parallel->streams[i];
    EXPECT_EQ(s.result.method, i % 2 == 0 ? AccessMethodKind::kBTree
                                          : AccessMethodKind::kScan)
        << s.stream;
    EXPECT_EQ(s.result.signal, baseline->streams[i].result.signal);
  }
  EXPECT_EQ(parallel->TotalStats().reg_updates,
            baseline->TotalStats().reg_updates);
}

TEST_F(ParallelBatchTest, StrictErrorsAreDeterministicUnderContention) {
  // Without fallback, the batch must fail with the error of the earliest
  // failing stream in request order — regardless of which worker finished
  // first.
  AddStream("a_indexed", 300, true);
  AddStream("b_bare", 301, false);
  AddStream("c_bare", 302, false);
  BatchOptions options;
  options.exec.method = AccessMethodKind::kBTree;

  options.num_threads = 1;
  auto sequential = ExecuteBatch(&system_, Fixed(2, 3), options);
  ASSERT_FALSE(sequential.ok());
  EXPECT_EQ(sequential.status().code(), StatusCode::kFailedPrecondition);

  options.num_threads = 8;
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto parallel = ExecuteBatch(&system_, Fixed(2, 3), options);
    ASSERT_FALSE(parallel.ok());
    EXPECT_EQ(parallel.status(), sequential.status());
  }
}

TEST_F(ParallelBatchTest, MissingStreamFailsBatchInParallel) {
  AddStream("only", 400, true);
  BatchOptions options;
  options.streams = {"only", "ghost"};
  options.num_threads = 4;
  auto batch = ExecuteBatch(&system_, Fixed(1, 2), options);
  EXPECT_EQ(batch.status().code(), StatusCode::kNotFound);
}

TEST_F(ParallelBatchTest, DuplicateStreamRequestsDoNotRace) {
  // Requests naming the same stream may run at once, each on its own lent
  // handle; every one must still get the full, identical answer.
  AddStream("dup", 500, true);
  AddStream("other", 501, true);
  BatchOptions options;
  options.streams = {"dup", "other", "dup", "dup"};
  options.num_threads = 8;
  auto batch = ExecuteBatch(&system_, Fixed(4, 5), options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->streams.size(), 4u);
  EXPECT_EQ(batch->streams[0].stream, "dup");
  EXPECT_EQ(batch->streams[1].stream, "other");
  EXPECT_EQ(batch->streams[2].stream, "dup");
  EXPECT_EQ(batch->streams[3].stream, "dup");
  EXPECT_EQ(batch->streams[0].result.signal, batch->streams[2].result.signal);
  EXPECT_EQ(batch->streams[0].result.signal, batch->streams[3].result.signal);
}

TEST_F(ParallelBatchTest, TotalStatsMatchesHandRolledSum) {
  for (int i = 0; i < 3; ++i) {
    AddStream("tag" + std::to_string(i), 600 + i, true);
  }
  BatchOptions options;
  options.num_threads = 2;
  auto batch = ExecuteBatch(&system_, Fixed(4, 5), options);
  ASSERT_TRUE(batch.ok());
  ExecStats expected;
  double seconds = 0;
  for (const BatchStreamResult& s : batch->streams) {
    expected += s.result.stats;
    seconds += s.result.stats.elapsed_seconds;
  }
  ExecStats total = batch->TotalStats();
  EXPECT_EQ(total.reg_updates, expected.reg_updates);
  EXPECT_EQ(total.relevant_timesteps, expected.relevant_timesteps);
  EXPECT_EQ(total.intervals, expected.intervals);
  EXPECT_EQ(total.stream_io.fetches, expected.stream_io.fetches);
  EXPECT_EQ(total.index_io.fetches, expected.index_io.fetches);
  EXPECT_DOUBLE_EQ(batch->TotalSeconds(), seconds);
}

}  // namespace
}  // namespace caldera
