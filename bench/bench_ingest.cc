// Live-ingestion benchmark: durable append throughput through the WAL
// commit protocol, and the cost of incremental MC index maintenance
// against a full rebuild. The right-spine extension recomputes
// O(B/(alpha-1) + log_alpha n) nodes per batch of B timesteps, so extend
// cost should stay flat in the stream length while rebuild cost grows
// linearly; results land in BENCH_ingest.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <thread>

#include "bench_util.h"
#include "caldera/system.h"
#include "common/logging.h"
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
  // families, then ingest more timesteps in batches of B. Each commit
  // fsyncs the WAL (batch frame and undo journal at once), each finalized
  // record file's two pagers, meta.bin, each B+ tree, the MC levels that
  // grew plus mc.meta, and the WAL reset: about 14 fsyncs per batch-1
  // commit here. They are paid per batch, so throughput should rise
  // steeply with the batch size. The batch-1 row at
  // ~32k archived timesteps checks that a commit's cost does not grow with
  // the stream: record files only grow at their ends, so the undo journal
  // is a few pages per file at any length.
  std::printf("# Append throughput onto an archive with BT_C + BT_P + MC\n");
  std::printf("%-10s %-10s %10s %14s %16s %14s %16s\n", "archived", "batch",
              "appended", "timesteps/s", "wal-bytes/step", "mc-nodes",
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
  const MarkovianStream full =
      MakeBandedRandomWalkStream(kLongArchive + 200, kDomain, 99);
  Caldera system(root);
  const RegularQuery query = RegularQuery::Sequence(
      "probe", {Predicate::Equality(0, 2, "eq2"), Predicate::Equality(0, 3, "eq3")});
  ExecOptions btree_exec;
  btree_exec.method = AccessMethodKind::kBTree;

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

    std::string name = "a";
    name += std::to_string(row.archived) + "b" + std::to_string(row.batch);
    CALDERA_CHECK_OK(
        system.archive()->CreateStream(name, Prefix(full, row.archived)));
    CALDERA_CHECK_OK(system.archive()->BuildBtc(name, 0));
    CALDERA_CHECK_OK(system.archive()->BuildBtp(name, 0));
    CALDERA_CHECK_OK(system.archive()->BuildMc(name, {.alpha = 2}));
    system.InvalidateStreams();

    auto ingestor = system.OpenForIngest(name);
    CALDERA_CHECK_OK(ingestor.status());
    double secs = Seconds([&] {
      for (uint64_t at = row.archived; at < end; at += row.batch) {
        uint64_t count = std::min<uint64_t>(row.batch, end - at);
        CALDERA_CHECK_OK((*ingestor)->Append(Slice(full, at, count)));
      }
    });
    const IngestStats& stats = (*ingestor)->stats();
    double per_sec = static_cast<double>(stats.timesteps_appended) / secs;
    double wal_per_step = static_cast<double>(stats.wal_bytes) /
                          static_cast<double>(stats.timesteps_appended);

    auto live = system.Execute(name, query, btree_exec);
    CALDERA_CHECK_OK(live.status());
    bool identical = live->signal == oracle->signal;
    all_identical = all_identical && identical;

    std::printf("%-10llu %-10llu %10llu %14.0f %16.0f %14llu %16s\n",
                static_cast<unsigned long long>(row.archived),
                static_cast<unsigned long long>(row.batch),
                static_cast<unsigned long long>(row.appended), per_sec,
                wal_per_step,
                static_cast<unsigned long long>(stats.mc.nodes_recomputed),
                identical ? "yes" : "NO");
    std::fprintf(json,
                 "%s    {\"archived\": %llu, \"batch\": %llu, "
                 "\"appended\": %llu, \"timesteps_per_s\": %.0f, "
                 "\"wal_bytes_per_step\": %.0f, \"mc_nodes_recomputed\": "
                 "%llu, \"identical\": %s}",
                 first_row ? "" : ",\n",
                 static_cast<unsigned long long>(row.archived),
                 static_cast<unsigned long long>(row.batch),
                 static_cast<unsigned long long>(row.appended), per_sec,
                 wal_per_step,
                 static_cast<unsigned long long>(stats.mc.nodes_recomputed),
                 identical ? "true" : "false");
    first_row = false;
  }
  std::printf("# expected: throughput rises with batch size (the ~14 "
              "fsyncs of a commit amortize); batch-1 wal-bytes/step about "
              "the same at 1000 and %llu archived; identical-out=yes "
              "everywhere\n",
              static_cast<unsigned long long>(kLongArchive));

  // Incremental extension vs full rebuild: at each archived length n,
  // append one 16-timestep batch through the ingestor and compare its MC
  // maintenance (time and nodes recomputed) with rebuilding the whole MC
  // index at length n+16. Extend cost should stay ~flat; rebuild is O(n).
  std::fprintf(json, "\n  ],\n  \"mc_extend_vs_rebuild\": [\n");
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
  std::fprintf(json, "\n  ]\n}\n");
  std::fclose(json);
  std::printf("# expected: extend-ms ~flat in length (right-spine O(log n) "
              "maintenance), rebuild-ms ~linear; wrote BENCH_ingest.json\n");
  return all_identical ? 0 : 1;
}
