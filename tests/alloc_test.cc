// Heap allocations of a steady-state scan step. This binary replaces the
// global operator new with a counting one, so it holds only tests that
// count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "caldera/archive.h"
#include "markov/stream_io.h"
#include "reg/reg_operator.h"
#include "rfid/workload.h"
#include "test_util.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace caldera {
namespace {

// The steps RunCursorPipeline takes, each reading into one hoisted target
// the way it does: a scan step (transition read plus fused Update), a
// segment restart (marginal read, Reset, Initialize: the B+Tree method's
// step) and an independent step (marginal read plus UpdateIndependent: the
// semi-independent method's step across a gap).
enum class Step { kUpdate, kRestart, kIndependent };

// A transition read is a record fetch from a warm buffer pool plus the CPT
// decode into a reused table; a marginal read decodes into a reused
// distribution. Reused buffers only grow, and the Reg operator's entry
// buffers are recycled, not freed, so repeated passes over a stream
// converge to passes that never touch the heap; after that, no step
// allocates.
void ExpectSteadyStateStepDoesNotAllocate(DiskLayout layout, Step step) {
  test::ScratchDir scratch("alloc_scan");
  RoutineSpec spec;
  spec.length = 400;
  Result<RoutineWorkload> w = MakeRoutineStream(spec);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  StreamArchive archive(scratch.Path("archive"));
  ASSERT_TRUE(archive.Init().ok());
  ASSERT_TRUE(archive.CreateStream("tag", w->stream, layout).ok());
  Result<RegularQuery> query = w->EnteredRoom(w->own_office, 3, false);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto stream = StoredStream::Open(archive.StreamDir("tag"));
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();

  RegOperator reg(*query, w->schema);
  Distribution first;
  ASSERT_TRUE((*stream)->ReadMarginal(0, &first).ok());
  Cpt transition;
  Distribution marginal;
  // Allocations made by one pass: a segment start, then every step.
  auto pass = [&] {
    const uint64_t before = g_allocations.load();
    reg.Reset();
    reg.Initialize(first);
    for (uint64_t t = 1; t < (*stream)->length(); ++t) {
      switch (step) {
        case Step::kUpdate:
          EXPECT_TRUE((*stream)->ReadTransition(t, &transition).ok());
          reg.Update(transition);
          break;
        case Step::kRestart:
          EXPECT_TRUE((*stream)->ReadMarginal(t, &marginal).ok());
          reg.Reset();
          reg.Initialize(marginal);
          break;
        case Step::kIndependent:
          EXPECT_TRUE((*stream)->ReadMarginal(t, &marginal).ok());
          reg.UpdateIndependent(marginal);
          break;
      }
    }
    return g_allocations.load() - before;
  };
  const uint64_t cold = pass();
  EXPECT_GT(cold, 0u) << "the counter must see the first pass's buffers";
  int warm_passes = 1;
  while (pass() != 0) {
    ASSERT_LT(++warm_passes, 8) << "allocations never stopped";
  }
  EXPECT_EQ(pass(), 0u) << "after " << warm_passes << " warm-up passes";
}

TEST(ScanStepAllocationTest, SteadyStateStepDoesNotAllocate) {
  ExpectSteadyStateStepDoesNotAllocate(DiskLayout::kSeparated, Step::kUpdate);
}

// A co-clustered record holds the marginal ahead of the CPT: a transition
// read (a scan step, an MC Extend read) checks the marginal's bytes but
// builds nothing from them.
TEST(ScanStepAllocationTest, CoClusteredSteadyStateStepDoesNotAllocate) {
  ExpectSteadyStateStepDoesNotAllocate(DiskLayout::kCoClustered,
                                       Step::kUpdate);
}

TEST(ScanStepAllocationTest, SteadyStateRestartDoesNotAllocate) {
  ExpectSteadyStateStepDoesNotAllocate(DiskLayout::kSeparated,
                                       Step::kRestart);
}

// Each independent step first collapses the live states through the null
// transition, which merges them in the operator's recycled buckets.
TEST(ScanStepAllocationTest, SteadyStateIndependentStepDoesNotAllocate) {
  ExpectSteadyStateStepDoesNotAllocate(DiskLayout::kSeparated,
                                       Step::kIndependent);
}

}  // namespace
}  // namespace caldera
