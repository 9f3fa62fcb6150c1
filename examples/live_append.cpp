// Live append: grow an archived stream through the WAL-backed ingestion
// pipeline while its indexes follow it (the MC index is extended, the
// BT_C compacted at checkpoints). Run it
// repeatedly against the same directory — every run appends one batch and
// queries straight through the fresh tail.
//
//   ./live_append [archive-dir] [--crash-after-commit[=N]]
//
// With --crash-after-commit the run appends N-1 batches (default N = 1),
// commits an Nth to the WAL and exits without applying it or running a
// checkpoint, simulating a writer killed mid-batch. The WAL then holds
// all N batches, so the next normal run's open redoes every one of them
// before appending its own (the CI recovery smoke tests drive exactly
// this sequence, with N = 1 and with several acknowledged appends).

#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "caldera/system.h"
#include "common/logging.h"
#include "ingest/ingestor.h"
#include "markov/synthetic.h"
#include "query/regular_query.h"

using namespace caldera;  // NOLINT: example brevity.

namespace {

constexpr uint32_t kDomain = 8;
constexpr uint64_t kSeed = 1234;
constexpr uint64_t kInitialLength = 50;
constexpr uint64_t kBatch = 10;

// The stream is a deterministic banded random walk: generating a longer
// stream from the same seed reproduces every earlier timestep, so each run
// can extend the archive by slicing the generator just past the current
// committed length.
std::vector<IngestTimestep> NextBatch(uint64_t length) {
  MarkovianStream full =
      MakeBandedRandomWalkStream(length + kBatch, kDomain, kSeed);
  std::vector<IngestTimestep> batch;
  for (uint64_t t = length; t < length + kBatch; ++t) {
    batch.push_back({full.marginal(t), full.transition(t)});
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = "/tmp/caldera_live_append";
  // Batches to commit before the simulated crash; 0 = no crash.
  uint64_t crash_after_commit = 0;
  constexpr std::string_view kCrashFlag = "--crash-after-commit";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == kCrashFlag) {
      crash_after_commit = 1;
    } else if (arg.starts_with(kCrashFlag) && arg[kCrashFlag.size()] == '=') {
      char* end = nullptr;
      const char* count = argv[i] + kCrashFlag.size() + 1;
      crash_after_commit = std::strtoull(count, &end, 10);
      if (*count < '0' || *count > '9' || *end != '\0' ||
          crash_after_commit == 0) {
        std::fprintf(stderr, "bad batch count in %s\n", argv[i]);
        return 2;
      }
    } else {
      dir = argv[i];
    }
  }

  Caldera system(dir);
  if (!system.archive()->HasStream("live")) {
    MarkovianStream seedling =
        MakeBandedRandomWalkStream(kInitialLength, kDomain, kSeed);
    CALDERA_CHECK_OK(system.archive()->CreateStream("live", seedling));
    CALDERA_CHECK_OK(system.archive()->BuildBtc("live", 0));
    CALDERA_CHECK_OK(system.archive()->BuildMc("live", {.alpha = 2}));
    std::printf("created stream 'live' with %llu timesteps (BT_C + MC)\n",
                static_cast<unsigned long long>(kInitialLength));
  }

  // Open replays the WAL first if the previous writer died mid-batch.
  auto ingestor = system.OpenForIngest("live");
  CALDERA_CHECK_OK(ingestor.status());
  if ((*ingestor)->stats().batches_recovered > 0) {
    std::printf("recovered %llu committed batch(es) from the WAL left by a "
                "crashed writer\n",
                static_cast<unsigned long long>(
                    (*ingestor)->stats().batches_recovered));
  }
  uint64_t length = (*ingestor)->length();
  std::printf("stream 'live' is %llu timesteps long\n",
              static_cast<unsigned long long>(length));

  if (crash_after_commit > 0) {
    // Acknowledged appends: applied, but not yet checkpointed.
    for (uint64_t i = 1; i < crash_after_commit; ++i) {
      CALDERA_CHECK_OK((*ingestor)->Append(NextBatch((*ingestor)->length())));
    }
    // Commit the last batch durably, then die before applying it. Every
    // batch is past the WAL commit point, so the next open MUST redo them.
    CALDERA_CHECK_OK(
        (*ingestor)->CommitWithoutApply(NextBatch((*ingestor)->length())));
    std::printf("%llu batch(es) of %llu committed to the WAL; crashing "
                "before the last apply and any checkpoint (rerun without "
                "the flag to recover)\n",
                static_cast<unsigned long long>(crash_after_commit),
                static_cast<unsigned long long>(kBatch));
    std::fflush(stdout);
    _Exit(1);
  }

  std::vector<IngestTimestep> batch = NextBatch(length);
  CALDERA_CHECK_OK((*ingestor)->Append(batch));
  // Closing would checkpoint anyway; checkpointing now lets the line below
  // report the BT_C compaction a checkpoint runs once the tree's in-memory
  // tail reaches 1/8 of its file.
  CALDERA_CHECK_OK((*ingestor)->Checkpoint());
  const IngestStats& stats = (*ingestor)->stats();
  std::printf("appended %llu timesteps: %llu MC nodes recomputed, %llu WAL "
              "bytes; checkpoints compacted %llu B+ tree entries\n",
              static_cast<unsigned long long>(stats.timesteps_appended),
              static_cast<unsigned long long>(stats.mc.nodes_recomputed),
              static_cast<unsigned long long>(stats.wal_bytes),
              static_cast<unsigned long long>(stats.btree_inserts));

  // The commit already refreshed the idle stream handle: this query sees
  // the new tail with no manual invalidation.
  RegularQuery query = RegularQuery::Sequence(
      "probe",
      {Predicate::Equality(0, 2, "eq2"), Predicate::Equality(0, 3, "eq3")});
  auto result = system.Execute("live", query, {});
  CALDERA_CHECK_OK(result.status());
  std::printf("query over %llu timesteps: %zu signal entries",
              static_cast<unsigned long long>((*ingestor)->length()),
              result->signal.size());
  if (!result->signal.empty()) {
    const TimestepProbability& last = result->signal.back();
    std::printf("; last at t=%llu p=%.4f",
                static_cast<unsigned long long>(last.time), last.prob);
  }
  std::printf("\n");
  return 0;
}
