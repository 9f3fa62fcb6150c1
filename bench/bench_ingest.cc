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

#include "bench_util.h"
#include "caldera/system.h"
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

  std::FILE* json = std::fopen("BENCH_ingest.json", "w");
  CALDERA_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"append_throughput\": [\n");

  // Durable append throughput: archive a 1000-timestep prefix with all
  // three index families, then ingest 1000 more timesteps in batches of B.
  // Every batch pays two fsyncs (frame + undo journal) plus the full index
  // maintenance, so throughput should rise steeply with the batch size.
  std::printf("# Append throughput: 1000 timesteps onto a 1000-timestep "
              "archive (BT_C + BT_P + MC)\n");
  std::printf("%-10s %14s %16s %14s %16s\n", "batch", "timesteps/s",
              "wal-bytes/step", "mc-nodes", "identical-out");

  const MarkovianStream full = MakeBandedRandomWalkStream(2000, kDomain, 99);
  Caldera system(root);
  CALDERA_CHECK_OK(system.archive()->CreateStream("oracle", full));
  CALDERA_CHECK_OK(system.archive()->BuildBtc("oracle", 0));
  const RegularQuery query = RegularQuery::Sequence(
      "probe", {Predicate::Equality(0, 2, "eq2"), Predicate::Equality(0, 3, "eq3")});
  ExecOptions btree_exec;
  btree_exec.method = AccessMethodKind::kBTree;
  auto oracle = system.Execute("oracle", query, btree_exec);
  CALDERA_CHECK_OK(oracle.status());

  bool first_row = true;
  for (uint64_t batch_size : {1u, 16u, 64u, 256u}) {
    std::string name = "b";
    name += std::to_string(batch_size);
    CALDERA_CHECK_OK(system.archive()->CreateStream(name, Prefix(full, 1000)));
    CALDERA_CHECK_OK(system.archive()->BuildBtc(name, 0));
    CALDERA_CHECK_OK(system.archive()->BuildBtp(name, 0));
    CALDERA_CHECK_OK(system.archive()->BuildMc(name, {.alpha = 2}));
    system.InvalidateStreams();

    auto ingestor = system.OpenForIngest(name);
    CALDERA_CHECK_OK(ingestor.status());
    double secs = Seconds([&] {
      for (uint64_t at = 1000; at < 2000; at += batch_size) {
        uint64_t count = std::min<uint64_t>(batch_size, 2000 - at);
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

    std::printf("%-10llu %14.0f %16.0f %14llu %16s\n",
                static_cast<unsigned long long>(batch_size), per_sec,
                wal_per_step,
                static_cast<unsigned long long>(stats.mc.nodes_recomputed),
                identical ? "yes" : "NO");
    std::fprintf(json,
                 "%s    {\"batch\": %llu, \"timesteps_per_s\": %.0f, "
                 "\"wal_bytes_per_step\": %.0f, \"mc_nodes_recomputed\": "
                 "%llu, \"identical\": %s}",
                 first_row ? "" : ",\n",
                 static_cast<unsigned long long>(batch_size), per_sec,
                 wal_per_step,
                 static_cast<unsigned long long>(stats.mc.nodes_recomputed),
                 identical ? "true" : "false");
    first_row = false;
  }
  std::printf("# expected: throughput rises with batch size (two fsyncs "
              "per batch amortize); identical-out=yes everywhere\n");

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
  return 0;
}
