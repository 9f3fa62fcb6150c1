// Live-ingestion benchmark: durable append throughput through the WAL
// commit protocol, recovery time after a writer dies with a full
// checkpoint window, the cost of B+ tree compaction and of opening a handle
// whose trees carry the largest in-memory tail, the cost of incremental MC
// index maintenance against a full rebuild, and commit latency while scans
// run on the stream. The right-spine extension recomputes
// O(B/(alpha-1) + log_alpha n) nodes per batch of B timesteps, so extend
// cost should stay flat in the stream length while rebuild cost grows
// linearly; results land in BENCH_ingest.json.
//
//   ./bench_ingest    (writes BENCH_ingest.json into the current directory)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "caldera/system.h"
#include "common/logging.h"
#include "index/attribute_index.h"
#include "ingest/ingestor.h"
#include "markov/synthetic.h"
#include "query/regular_query.h"

using namespace caldera;         // NOLINT
using namespace caldera::bench;  // NOLINT

namespace {

double Seconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<IngestTimestep> Slice(const MarkovianStream& full, uint64_t from,
                                  uint64_t count) {
  std::vector<IngestTimestep> batch;
  batch.reserve(count);
  for (uint64_t t = from; t < from + count; ++t) {
    batch.push_back({full.marginal(t), full.transition(t)});
  }
  return batch;
}

MarkovianStream Prefix(const MarkovianStream& full, uint64_t len) {
  MarkovianStream prefix(full.schema());
  for (uint64_t t = 0; t < len; ++t) {
    prefix.Append(full.marginal(t), t == 0 ? Cpt() : full.transition(t));
  }
  return prefix;
}

}  // namespace

int main() {
  std::string root = ScratchDir("ingest");
  constexpr uint32_t kDomain = 16;
  constexpr uint64_t kLongArchive = 32000;

  std::FILE* json = std::fopen("BENCH_ingest.json", "w");
  CALDERA_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"nproc\": %u,\n  \"append_throughput\": [\n",
               std::thread::hardware_concurrency());

  // Durable append throughput: archive a prefix with all three index
  // families, then ingest more timesteps in batches of B. A commit makes
  // one fsync (the WAL: batch frame and first-touch undo records at
  // once); the apply syncs nothing and writes no tree file. A checkpoint
  // then fsyncs each file the window touched (meta.bin, the record files'
  // data and directory files, mc.meta, the MC levels that grew) and the WAL
  // reset, and compacts each tree whose tail reached 1/8 of its file (two
  // fsyncs each), when the log passes StreamIngestor::kCheckpointWalBytes
  // and once more at the end of the timed loop. Undo records are journaled on a
  // file's first touch in a window, so at batch 1 the WAL bytes per step
  // are about one batch frame. Each row runs kRuns times on a fresh
  // stream: throughput is the median, with the range. The batch-1 row at
  // ~32k archived timesteps checks that a commit's cost does not grow with
  // the stream.
  constexpr int kRuns = 3;
  std::printf("# Append throughput onto an archive with BT_C + BT_P + MC, "
              "%d runs per row\n",
              kRuns);
  std::printf("%-9s %-6s %9s %12s %17s %15s %13s %13s %10s %14s\n",
              "archived", "batch", "appended", "timesteps/s", "range",
              "wal-bytes/step", "undo/step", "fsyncs/commit", "commits/ckpt",
              "identical-out");

  struct Row {
    uint64_t archived;
    uint64_t batch;
    uint64_t appended;
  };
  const Row rows[] = {{1000, 1, 1000},
                      {1000, 16, 1000},
                      {1000, 64, 1000},
                      {1000, 256, 1000},
                      {kLongArchive, 1, 200}};
  // Past the rows' 200 appended timesteps, room for the recovery run to
  // fill a checkpoint window and for the compaction run's tail of 1/8 of
  // kLongArchive.
  const MarkovianStream full = MakeBandedRandomWalkStream(
      kLongArchive + kLongArchive / kTreeCompactionDivisor + 16, kDomain, 99);
  Caldera system(root);
  const RegularQuery query = RegularQuery::Sequence(
      "probe", {Predicate::Equality(0, 2, "eq2"), Predicate::Equality(0, 3, "eq3")});
  ExecOptions btree_exec;
  btree_exec.method = AccessMethodKind::kBTree;
  auto archive_with_indexes = [&](const std::string& name,
                                  const MarkovianStream& stream) {
    CALDERA_CHECK_OK(system.archive()->CreateStream(name, stream));
    CALDERA_CHECK_OK(system.archive()->BuildBtc(name, 0));
    CALDERA_CHECK_OK(system.archive()->BuildBtp(name, 0));
    CALDERA_CHECK_OK(system.archive()->BuildMc(name, {.alpha = 2}));
  };

  bool first_row = true;
  bool all_identical = true;
  for (const Row& row : rows) {
    const uint64_t end = row.archived + row.appended;
    // Oracle: the same stream archived offline at the final length.
    std::string oracle_name = "oracle";
    oracle_name += std::to_string(end);
    if (!system.archive()->HasStream(oracle_name)) {
      CALDERA_CHECK_OK(
          system.archive()->CreateStream(oracle_name, Prefix(full, end)));
      CALDERA_CHECK_OK(system.archive()->BuildBtc(oracle_name, 0));
    }
    auto oracle = system.Execute(oracle_name, query, btree_exec);
    CALDERA_CHECK_OK(oracle.status());

    std::vector<double> per_sec;
    IngestStats stats;
    bool identical = true;
    for (int run = 0; run < kRuns; ++run) {
      std::string name = "a";
      name += std::to_string(row.archived) + "b" + std::to_string(row.batch) +
              "r" + std::to_string(run);
      archive_with_indexes(name, Prefix(full, row.archived));
      system.InvalidateStreams();

      auto ingestor = system.OpenForIngest(name);
      CALDERA_CHECK_OK(ingestor.status());
      double secs = Seconds([&] {
        for (uint64_t at = row.archived; at < end; at += row.batch) {
          uint64_t count = std::min<uint64_t>(row.batch, end - at);
          CALDERA_CHECK_OK((*ingestor)->Append(Slice(full, at, count)));
        }
        CALDERA_CHECK_OK((*ingestor)->Checkpoint());
      });
      stats = (*ingestor)->stats();
      per_sec.push_back(static_cast<double>(stats.timesteps_appended) / secs);

      auto live = system.Execute(name, query, btree_exec);
      CALDERA_CHECK_OK(live.status());
      identical = identical && live->signal == oracle->signal;
    }
    all_identical = all_identical && identical;
    std::sort(per_sec.begin(), per_sec.end());
    const double median = per_sec[per_sec.size() / 2];
    const auto steps = static_cast<double>(stats.timesteps_appended);
    const auto commits = static_cast<double>(stats.batches_committed);
    const double wal_per_step = static_cast<double>(stats.wal_bytes) / steps;
    const double undo_per_step = static_cast<double>(stats.undo_bytes) / steps;
    const double fsyncs_per_commit =
        static_cast<double>(stats.fsyncs) / commits;
    const double commits_per_checkpoint =
        commits / static_cast<double>(stats.checkpoints);

    std::printf("%-9llu %-6llu %9llu %12.0f %8.0f-%-8.0f %15.0f %13.0f %13.3f "
                "%10.1f %14s\n",
                static_cast<unsigned long long>(row.archived),
                static_cast<unsigned long long>(row.batch),
                static_cast<unsigned long long>(row.appended), median,
                per_sec.front(), per_sec.back(), wal_per_step, undo_per_step,
                fsyncs_per_commit, commits_per_checkpoint,
                identical ? "yes" : "NO");
    std::fprintf(json,
                 "%s    {\"archived\": %llu, \"batch\": %llu, "
                 "\"appended\": %llu, \"runs\": %d, \"timesteps_per_s\": "
                 "%.0f, \"timesteps_per_s_min\": %.0f, "
                 "\"timesteps_per_s_max\": %.0f, \"wal_bytes_per_step\": "
                 "%.0f, \"undo_bytes_per_step\": %.0f, "
                 "\"fsyncs_per_commit\": %.3f, \"checkpoints\": %llu, "
                 "\"mc_nodes_recomputed\": %llu, \"identical\": %s}",
                 first_row ? "" : ",\n",
                 static_cast<unsigned long long>(row.archived),
                 static_cast<unsigned long long>(row.batch),
                 static_cast<unsigned long long>(row.appended), kRuns, median,
                 per_sec.front(), per_sec.back(), wal_per_step, undo_per_step,
                 fsyncs_per_commit,
                 static_cast<unsigned long long>(stats.checkpoints),
                 static_cast<unsigned long long>(stats.mc.nodes_recomputed),
                 identical ? "true" : "false");
    first_row = false;
  }
  std::printf("# expected: throughput rises with batch size (the one fsync "
              "of a commit amortizes); batch-1 wal-bytes/step about one "
              "batch frame at 1000 and %llu archived; fsyncs/commit = 1 + "
              "F/K for K commits/ckpt and F fsyncs per checkpoint (the "
              "files a window touched, growing with its MC levels, the WAL "
              "reset, and two per tree compacted); identical-out=yes "
              "everywhere\n",
              static_cast<unsigned long long>(kLongArchive));

  // Recovery after a writer dies with a full checkpoint window: batch-1
  // commits onto ~32k archived timesteps until the next frame would pass
  // the checkpoint threshold, then one committed-but-unapplied batch. The
  // reopen restores the undo records, redoes every frame and checkpoints.
  // The B+ trees take no part: commits never wrote them, and the window is
  // far from due for a compaction.
  {
    const std::string name = "recover";
    archive_with_indexes(name, Prefix(full, kLongArchive));
    system.InvalidateStreams();
    uint64_t at = kLongArchive;
    {
      auto ingestor = system.OpenForIngest(name);
      CALDERA_CHECK_OK(ingestor.status());
      uint64_t frame = 0;
      while ((*ingestor)->stats().wal_bytes + 2 * frame <
                 StreamIngestor::kCheckpointWalBytes &&
             at + 1 < full.length()) {
        const uint64_t before = (*ingestor)->stats().wal_bytes;
        CALDERA_CHECK_OK((*ingestor)->Append(Slice(full, at, 1)));
        frame = (*ingestor)->stats().wal_bytes - before;
        ++at;
      }
      CALDERA_CHECK(at + 1 < full.length());
      CALDERA_CHECK((*ingestor)->stats().checkpoints == 0);
      CALDERA_CHECK_OK((*ingestor)->CommitWithoutApply(Slice(full, at, 1)));
      ++at;
    }
    const uint64_t wal_bytes =
        std::filesystem::file_size(StreamIngestor::WalPath(
            system.archive()->StreamDir(name)));
    std::unique_ptr<StreamIngestor> recovered;
    const double recover_s = Seconds([&] {
      auto opened = StreamIngestor::Open(system.archive()->StreamDir(name));
      CALDERA_CHECK_OK(opened.status());
      recovered = std::move(*opened);
    });
    CALDERA_CHECK(recovered->length() == at);
    std::printf("\n# Recovery of a full window onto %llu archived timesteps "
                "(undo restore + redo + checkpoint)\n",
                static_cast<unsigned long long>(kLongArchive));
    std::printf("%-12s %12s %14s %12s\n", "wal-bytes", "batches", "recover-ms",
                "ms/batch");
    const auto batches = recovered->stats().batches_recovered;
    std::printf("%-12llu %12llu %14.1f %12.3f\n",
                static_cast<unsigned long long>(wal_bytes),
                static_cast<unsigned long long>(batches), recover_s * 1e3,
                recover_s * 1e3 / static_cast<double>(batches));
    std::fprintf(json,
                 "\n  ],\n  \"recovery\": {\"archived\": %llu, "
                 "\"wal_bytes\": %llu, \"batches_recovered\": %llu, "
                 "\"recover_ms\": %.1f},\n",
                 static_cast<unsigned long long>(kLongArchive),
                 static_cast<unsigned long long>(wal_bytes),
                 static_cast<unsigned long long>(batches), recover_s * 1e3);
  }

  // Tree compaction and tails. Onto ~32k archived timesteps with BT_C and
  // BT_P, append (in batches of 64, checkpointing each) up to one timestep
  // short of 1/8 of the archive: the largest tail a tree carries. Time
  // opening a handle then (each tree's tail decodes its marginals) against
  // a handle on an offline build of the same length (no tail). Then time
  // the one-step checkpoint that makes both trees due, less a one-step
  // checkpoint that compacts nothing: the compaction, which amortizes over
  // the 1/8 of the archive appended since the last.
  {
    const std::string name = "compact";
    const uint64_t tail = kLongArchive / kTreeCompactionDivisor;
    archive_with_indexes(name, Prefix(full, kLongArchive));
    auto ingestor = system.OpenForIngest(name);
    CALDERA_CHECK_OK(ingestor.status());
    uint64_t at = kLongArchive;
    while (at < kLongArchive + tail - 2) {
      const uint64_t count =
          std::min<uint64_t>(64, kLongArchive + tail - 2 - at);
      CALDERA_CHECK_OK((*ingestor)->Append(Slice(full, at, count)));
      CALDERA_CHECK_OK((*ingestor)->Checkpoint());
      at += count;
    }
    CALDERA_CHECK_OK((*ingestor)->Append(Slice(full, at++, 1)));
    CALDERA_CHECK((*ingestor)->stats().btree_inserts == 0);
    const std::string offline = "compact_offline";
    archive_with_indexes(offline, Prefix(full, at));
    auto median_open_ms = [&](const std::string& stream) {
      std::vector<double> ms;
      for (int rep = 0; rep < 5; ++rep) {
        ms.push_back(1e3 * Seconds([&] {
          CALDERA_CHECK_OK(
              ArchivedStream::Open(system.archive()->StreamDir(stream))
                  .status());
        }));
      }
      std::sort(ms.begin(), ms.end());
      return ms[ms.size() / 2];
    };
    const double open_tail_ms = median_open_ms(name);
    const double open_offline_ms = median_open_ms(offline);
    const double base_s =
        Seconds([&] { CALDERA_CHECK_OK((*ingestor)->Checkpoint()); });
    CALDERA_CHECK((*ingestor)->stats().btree_inserts == 0);
    CALDERA_CHECK_OK((*ingestor)->Append(Slice(full, at++, 1)));
    const double compact_s =
        Seconds([&] { CALDERA_CHECK_OK((*ingestor)->Checkpoint()); });
    const uint64_t written = (*ingestor)->stats().btree_inserts;
    CALDERA_CHECK(written > 0);
    const double compact_ms = std::max(0.0, (compact_s - base_s) * 1e3);
    const double per_step_ms = compact_ms / static_cast<double>(tail);
    std::printf("\n# Tree tails and compaction onto %llu archived timesteps "
                "(BT_C + BT_P, compaction at a tail of 1/%llu)\n",
                static_cast<unsigned long long>(kLongArchive),
                static_cast<unsigned long long>(kTreeCompactionDivisor));
    std::printf("%-10s %14s %17s %14s %15s %18s\n", "tail", "open-ms",
                "open-ms-offline", "compact-ms", "entries", "ms/appended-step");
    std::printf("%-10llu %14.2f %17.2f %14.1f %15llu %18.4f\n",
                static_cast<unsigned long long>(tail - 1), open_tail_ms,
                open_offline_ms, compact_ms,
                static_cast<unsigned long long>(written), per_step_ms);
    std::printf("# expected: open-ms above open-ms-offline by the tail's "
                "marginal decodes; ms/appended-step well under a batch-1 "
                "commit\n");
    std::fprintf(json,
                 "  \"compaction\": {\"archived\": %llu, \"tail_steps\": "
                 "%llu, \"open_ms\": %.2f, \"open_ms_offline\": %.2f, "
                 "\"compact_ms\": %.1f, \"entries_written\": %llu, "
                 "\"ms_per_appended_step\": %.4f},\n"
                 "  \"mc_extend_vs_rebuild\": [\n",
                 static_cast<unsigned long long>(kLongArchive),
                 static_cast<unsigned long long>(tail - 1), open_tail_ms,
                 open_offline_ms, compact_ms,
                 static_cast<unsigned long long>(written), per_step_ms);
  }

  // Incremental extension vs full rebuild: at each archived length n,
  // append one 16-timestep batch through the ingestor and compare its MC
  // maintenance (time and nodes recomputed) with rebuilding the whole MC
  // index at length n+16. Extend cost should stay ~flat; rebuild is O(n).
  std::printf("\n# MC maintenance: extend by 16 vs full rebuild, alpha=2\n");
  std::printf("%-12s %14s %14s %16s %14s\n", "length", "extend-ms",
              "rebuild-ms", "extend-nodes", "ratio");

  first_row = true;
  for (uint64_t length : {1024u, 4096u, 16384u}) {
    const MarkovianStream big =
        MakeBandedRandomWalkStream(length + 16, kDomain, 7);
    std::string name = "n";
    name += std::to_string(length);
    CALDERA_CHECK_OK(system.archive()->CreateStream(name, Prefix(big, length)));
    CALDERA_CHECK_OK(system.archive()->BuildMc(name, {.alpha = 2}));
    system.InvalidateStreams();

    auto ingestor = system.OpenForIngest(name);
    CALDERA_CHECK_OK(ingestor.status());
    double extend_s = Seconds([&] {
      CALDERA_CHECK_OK((*ingestor)->Append(Slice(big, length, 16)));
    });
    uint64_t extend_nodes = (*ingestor)->stats().mc.nodes_recomputed;

    // Full rebuild of the same index at the same final length. Best-of-3:
    // the rebuild is rerunnable once the old level files are removed.
    std::string rebuild_name = name + "_full";
    CALDERA_CHECK_OK(
        system.archive()->CreateStream(rebuild_name, Prefix(big, length + 16)));
    double rebuild_s = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      std::filesystem::remove_all(system.archive()->StreamDir(rebuild_name) +
                                  "/mc");
      double s = Seconds([&] {
        CALDERA_CHECK_OK(
            system.archive()->BuildMc(rebuild_name, {.alpha = 2}));
      });
      if (s < rebuild_s) rebuild_s = s;
    }

    std::printf("%-12llu %14.3f %14.3f %16llu %13.1fx\n",
                static_cast<unsigned long long>(length), extend_s * 1e3,
                rebuild_s * 1e3,
                static_cast<unsigned long long>(extend_nodes),
                rebuild_s / extend_s);
    std::fprintf(json,
                 "%s    {\"length\": %llu, \"extend_ms\": %.4f, "
                 "\"rebuild_ms\": %.4f, \"extend_nodes\": %llu}",
                 first_row ? "" : ",\n",
                 static_cast<unsigned long long>(length), extend_s * 1e3,
                 rebuild_s * 1e3,
                 static_cast<unsigned long long>(extend_nodes));
    first_row = false;
  }
  std::printf("# expected: extend-ms ~flat in length (right-spine O(log n) "
              "maintenance), rebuild-ms ~linear\n");

  // Commit latency under concurrent scans: onto a 20k-step, 8-state stream
  // with BT_C and MC, one writer commits 1-step batches 2 ms apart while R
  // threads loop a scan of the 2-link query. A commit applies under the
  // stream lock held exclusively, and a query holds it shared while it
  // borrows its handle. Each case has a deadline: past it the scans stop,
  // which frees a starved commit, and the case reports how many commits
  // finished in time. queries/s counts the scans completed while the
  // commits ran: context that the readers ran, over a window too short to
  // compare across builds.
  constexpr uint64_t kScanArchive = 20000;
  constexpr size_t kScanCommits = 100;
  constexpr int kDeadlineSeconds = 30;
  std::printf("\n# Commit latency under concurrent scans: %zu one-step "
              "commits 2 ms apart onto %llu archived timesteps (BT_C + MC)\n",
              kScanCommits, static_cast<unsigned long long>(kScanArchive));
  std::printf("%-8s %12s %12s %12s %12s\n", "readers", "commit-p50",
              "commit-p99", "commit-max", "queries/s");
  std::fprintf(json, "\n  ],\n  \"commit_under_scans\": [\n");
  const MarkovianStream scan_full =
      MakeBandedRandomWalkStream(kScanArchive + kScanCommits, 8, 5);
  ExecOptions scan_exec;
  scan_exec.method = AccessMethodKind::kScan;
  first_row = true;
  for (int readers : {0, 1, 3}) {
    const std::string name = "scans" + std::to_string(readers);
    CALDERA_CHECK_OK(
        system.archive()->CreateStream(name, Prefix(scan_full, kScanArchive)));
    CALDERA_CHECK_OK(system.archive()->BuildBtc(name, 0));
    CALDERA_CHECK_OK(system.archive()->BuildMc(name, {.alpha = 2}));
    auto ingestor = system.OpenForIngest(name);
    CALDERA_CHECK_OK(ingestor.status());

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> queries{0};
    std::vector<std::thread> threads;
    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&] {
        while (!stop.load()) {
          CALDERA_CHECK_OK(system.Execute(name, query, scan_exec).status());
          queries.fetch_add(1);
        }
      });
    }
    while (queries.load() < static_cast<uint64_t>(readers)) {
      std::this_thread::yield();
    }
    std::mutex deadline_mu;
    std::condition_variable deadline_cv;
    bool done = false;
    std::atomic<bool> timed_out{false};
    std::thread deadline([&] {
      std::unique_lock<std::mutex> lock(deadline_mu);
      if (!deadline_cv.wait_for(lock, std::chrono::seconds(kDeadlineSeconds),
                                [&] { return done; })) {
        timed_out.store(true);
        stop.store(true);
      }
    });
    std::vector<double> commit_ms;
    size_t commits_in_time = 0;
    const uint64_t queries_before = queries.load();
    const double phase_s = Seconds([&] {
      for (size_t i = 0; i < kScanCommits && !timed_out.load(); ++i) {
        commit_ms.push_back(1e3 * Seconds([&] {
          CALDERA_CHECK_OK(
              (*ingestor)->Append(Slice(scan_full, kScanArchive + i, 1)));
        }));
        if (!timed_out.load()) ++commits_in_time;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    const uint64_t phase_queries = queries.load() - queries_before;
    stop.store(true);
    for (std::thread& t : threads) t.join();
    {
      std::lock_guard<std::mutex> lock(deadline_mu);
      done = true;
    }
    deadline_cv.notify_one();
    deadline.join();

    const bool finished = commits_in_time == kScanCommits;
    std::sort(commit_ms.begin(), commit_ms.end());
    const auto pick = [&](double q) {
      return commit_ms[static_cast<size_t>(
          q * static_cast<double>(commit_ms.size() - 1))];
    };
    const double queries_per_s = static_cast<double>(phase_queries) / phase_s;
    if (finished) {
      std::printf("%-8d %12.2f %12.2f %12.2f %12.0f\n", readers, pick(0.5),
                  pick(0.99), commit_ms.back(), queries_per_s);
    } else {
      std::printf("%-8d did not finish in %d s (%zu of %zu commits)\n",
                  readers, kDeadlineSeconds, commits_in_time, kScanCommits);
    }
    std::fprintf(json,
                 "%s    {\"readers\": %d, \"archived\": %llu, "
                 "\"commits\": %zu, \"finished\": %s, "
                 "\"commits_in_time\": %zu, \"deadline_s\": %d, "
                 "\"commit_p50_ms\": %.3f, \"commit_p99_ms\": %.3f, "
                 "\"commit_max_ms\": %.3f, \"queries_per_s\": %.0f}",
                 first_row ? "" : ",\n", readers,
                 static_cast<unsigned long long>(kScanArchive), kScanCommits,
                 finished ? "true" : "false", commits_in_time,
                 kDeadlineSeconds, pick(0.5), pick(0.99), commit_ms.back(),
                 queries_per_s);
    first_row = false;
  }
  std::printf("# expected: commit-p50 with 1 and 3 readers within a few "
              "times the 0-reader p50 (a commit waits for borrows, not for "
              "whole queries); wrote BENCH_ingest.json\n");

  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  return all_identical ? 0 : 1;
}
