// Micro-benchmarks (google-benchmark) for Caldera's hot inner loops:
// sparse distribution propagation, CPT composition and decoding, B+ tree
// operations, record-file reads, single Reg-operator updates, and one
// scan step (decode plus update).

#include <benchmark/benchmark.h>

#include <filesystem>

#include "btree/btree.h"
#include "caldera/archive.h"
#include "common/crc32c.h"
#include "common/encoding.h"
#include "common/logging.h"
#include "common/rng.h"
#include "hmm/smoother.h"
#include "index/btc_index.h"
#include "markov/cpt.h"
#include "markov/stream_io.h"
#include "reg/reg_operator.h"
#include "rfid/simulator.h"
#include "rfid/workload.h"
#include "storage/file.h"
#include "storage/pager.h"
#include "storage/record_file.h"

namespace caldera {
namespace {

std::string MicroDir() {
  std::string dir = "/tmp/caldera_bench/micro";
  std::filesystem::create_directories(dir);
  return dir;
}

Cpt RandomCpt(uint32_t domain, double row_density, uint64_t seed) {
  Rng rng(seed);
  Cpt cpt;
  for (uint32_t src = 0; src < domain; ++src) {
    std::vector<Cpt::RowEntry> row;
    double sum = 0;
    for (uint32_t dst = 0; dst < domain; ++dst) {
      if (rng.NextBool(row_density)) {
        double v = rng.NextDouble() + 0.01;
        row.push_back({dst, v});
        sum += v;
      }
    }
    if (row.empty()) {
      row.push_back({src, 1.0});
      sum = 1.0;
    }
    for (auto& e : row) e.prob /= sum;
    cpt.SetRow(src, std::move(row));
  }
  return cpt;
}

Distribution RandomDistribution(uint32_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<Distribution::Entry> entries;
  for (uint32_t v = 0; v < domain; ++v) {
    entries.push_back({v, rng.NextDouble() + 0.01});
  }
  Distribution d = Distribution::FromPairs(std::move(entries));
  d.Normalize();
  return d;
}

// The CSR kernels (markov/kernels.h) through their library entry points:
// Cpt::Propagate, the generators' and the smoother's propagation, and
// ComposeCpts, the MC index's composition. Args: {domain,
// row_density_permille}; density varies nnz at fixed domain.

void BM_KernelPropagate(benchmark::State& state) {
  uint32_t domain = static_cast<uint32_t>(state.range(0));
  double density = static_cast<double>(state.range(1)) / 1000.0;
  Cpt cpt = RandomCpt(domain, density, 1);
  Distribution in = RandomDistribution(domain, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpt.Propagate(in));
  }
  state.SetItemsProcessed(state.iterations() * cpt.nnz());
}
BENCHMARK(BM_KernelPropagate)
    ->Args({32, 100})
    ->Args({128, 100})
    ->Args({352, 10})
    ->Args({352, 100})
    ->Args({352, 500})
    ->Args({1024, 100});

void BM_KernelCompose(benchmark::State& state) {
  uint32_t domain = static_cast<uint32_t>(state.range(0));
  double density = static_cast<double>(state.range(1)) / 1000.0;
  Cpt a = RandomCpt(domain, density, 3);
  Cpt b = RandomCpt(domain, density, 4);
  Cpt out;
  for (auto _ : state) {
    ComposeCpts(a, b, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_KernelCompose)
    ->Args({32, 100})
    ->Args({128, 100})
    ->Args({352, 10})
    ->Args({352, 100})
    ->Args({1024, 50});

// The scan's per-step decode: serialized transition records of one routine
// trace in the paper's building (1,680 steps, as in perfbench fleet-scan)
// decoded in order into one reused Cpt.
void BM_CptDecode(benchmark::State& state) {
  RoutineSpec spec;
  spec.length = 1680;
  Result<RoutineWorkload> w = MakeRoutineStream(spec);
  CALDERA_CHECK_OK(w.status());
  const MarkovianStream& stream = w->stream;
  const uint32_t domain = stream.schema().state_count();
  std::vector<std::string> records;
  size_t nnz = 0;
  for (uint64_t t = 1; t < stream.length(); ++t) {
    records.emplace_back();
    stream.transition(t).AppendTo(&records.back());
    nnz += stream.transition(t).nnz();
  }
  Cpt cpt;
  size_t i = 0;
  for (auto _ : state) {
    size_t offset = 0;
    CALDERA_CHECK_OK(Cpt::Parse(records[i], &offset, domain, &cpt));
    benchmark::DoNotOptimize(cpt);
    if (++i == records.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["nnz_per_cpt"] =
      static_cast<double>(nnz) / static_cast<double>(records.size());
}
BENCHMARK(BM_CptDecode);

// A batch of BT_C entries added to an empty in-memory tail (sorted, then
// merged): what a handle open pays per tail entry beyond decoding its
// marginals. 16 entries is one 16-state timestep; 65536 about the largest
// tail of a 32k-step archive (bench_ingest). Tree files are never written
// after their build.
void BM_BTreeTailAdd(benchmark::State& state) {
  const std::string path = MicroDir() + "/tail.bt";
  auto builder = BTreeBuilder::Create(path, {12, 8}, 4096);
  CALDERA_CHECK_OK(builder.status());
  CALDERA_CHECK_OK((*builder)->Finish(/*indexed_length=*/0).status());
  const auto n = static_cast<uint64_t>(state.range(0));
  std::string entries;
  for (uint64_t i = 0; i < n; ++i) {
    // Timestep-major, as a tail fill reads them: 16 values per timestep.
    entries += EncodeBtcKey(static_cast<uint32_t>(i % 16), i / 16);
    PutDouble(0.5, &entries);
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto tree = BTree::Open(path);  // An empty tail.
    CALDERA_CHECK_OK(tree.status());
    state.ResumeTiming();
    CALDERA_CHECK_OK((*tree)->AddToTail(entries));
    benchmark::DoNotOptimize((*tree)->num_entries());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BTreeTailAdd)->Arg(16)->Arg(65536);

// One BT_C or BT_P build (StreamArchive::BuildBtc / BuildBtp) over an
// archived 3000-snippet, density-0.05 snippet stream of 88,095 timesteps:
// every marginal read and aggregated, the entries sorted and bulk-loaded.
void BM_BTreeIndexBuild(benchmark::State& state, bool btc) {
  static const std::string root = [] {
    const std::string dir = MicroDir() + "/index_build";
    std::filesystem::remove_all(dir);
    SnippetStreamSpec spec;
    spec.num_snippets = 3000;
    spec.density = 0.05;
    Result<SnippetWorkload> w = MakeSnippetStream(spec);
    CALDERA_CHECK_OK(w.status());
    CALDERA_CHECK_OK(StreamArchive(dir).CreateStream("s", w->stream));
    return dir;
  }();
  StreamArchive archive(root);
  for (auto _ : state) {
    CALDERA_CHECK_OK(btc ? archive.BuildBtc("s", 0) : archive.BuildBtp("s", 0));
  }
}
BENCHMARK_CAPTURE(BM_BTreeIndexBuild, btc, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BTreeIndexBuild, btp, false)
    ->Unit(benchmark::kMillisecond);

void BM_BTreePointLookup(benchmark::State& state) {
  std::string path = MicroDir() + "/lookup.bt";
  auto builder = BTreeBuilder::Create(path, {12, 8}, 4096);
  CALDERA_CHECK_OK(builder.status());
  const uint64_t kEntries = 200000;
  std::string value;
  PutDouble(0.5, &value);
  for (uint64_t i = 0; i < kEntries; ++i) {
    // Keys must be added in sorted order: value runs of 3125 timesteps.
    CALDERA_CHECK_OK((*builder)->Add(
        EncodeBtcKey(static_cast<uint32_t>(i / 3125), i), value));
  }
  auto tree = (*builder)->Finish(/*indexed_length=*/0);
  CALDERA_CHECK_OK(tree.status());
  Rng rng(6);
  for (auto _ : state) {
    uint64_t i = rng.NextBelow(kEntries);
    auto got = (*tree)->Get(EncodeBtcKey(static_cast<uint32_t>(i / 3125), i));
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_BTreePointLookup);

void BM_BTreeCursorScan(benchmark::State& state) {
  std::string path = MicroDir() + "/scan.bt";
  auto builder = BTreeBuilder::Create(path, {12, 8}, 4096);
  CALDERA_CHECK_OK(builder.status());
  std::string value;
  PutDouble(0.5, &value);
  for (uint64_t i = 0; i < 100000; ++i) {
    CALDERA_CHECK_OK((*builder)->Add(EncodeBtcKey(7, i), value));
  }
  auto tree = (*builder)->Finish(/*indexed_length=*/0);
  CALDERA_CHECK_OK(tree.status());
  for (auto _ : state) {
    auto cursor = (*tree)->SeekFirst();
    CALDERA_CHECK_OK(cursor.status());
    uint64_t count = 0;
    while (cursor->valid()) {
      ++count;
      CALDERA_CHECK_OK(cursor->Next());
    }
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BTreeCursorScan);

// A BT_C tree of 300 values, each with a run over all 3,000 timesteps,
// built once per process.
BTree* SeekTimeTree() {
  static std::unique_ptr<BTree> tree = [] {
    auto builder =
        BTreeBuilder::Create(MicroDir() + "/seek_time.bt", {12, 8}, 4096);
    CALDERA_CHECK_OK(builder.status());
    std::string value;
    PutDouble(0.5, &value);
    for (uint32_t v = 0; v < 300; ++v) {
      for (uint64_t t = 0; t < 3000; ++t) {
        CALDERA_CHECK_OK((*builder)->Add(EncodeBtcKey(v, t), value));
      }
    }
    auto built = (*builder)->Finish(/*indexed_length=*/3000);
    CALDERA_CHECK_OK(built.status());
    return std::move(*built);
  }();
  return tree.get();
}

// PredicateCursor over SeekTimeTree(). /seek_run: SeekTime jumps of 2-5
// timesteps to the end of one value's run, as a merge join skips between
// relevant timesteps. /create_300: one Create over all 300 values, as a
// wide negation predicate opens, one descent and leaf copy per value.
void BM_PredicateCursorSeekTime(benchmark::State& state, bool walk) {
  BTree* tree = SeekTimeTree();
  std::vector<uint32_t> values = {7};
  if (!walk) {
    values.clear();
    for (uint32_t v = 0; v < 300; ++v) values.push_back(v);
  }
  Rng rng(13);
  int64_t ops = 0;
  for (auto _ : state) {
    auto cursor = PredicateCursor::Create(tree, values);
    CALDERA_CHECK_OK(cursor.status());
    if (walk) {
      while (cursor->valid()) {
        CALDERA_CHECK_OK(cursor->SeekTime(cursor->time() + 2 +
                                          rng.NextBelow(4)));
        ++ops;
      }
    } else {
      ops += static_cast<int64_t>(values.size());
    }
    benchmark::DoNotOptimize(cursor->valid());
  }
  state.SetItemsProcessed(ops);
}
BENCHMARK_CAPTURE(BM_PredicateCursorSeekTime, seek_run, true);
BENCHMARK_CAPTURE(BM_PredicateCursorSeekTime, create_300, false);

void BM_Crc32c(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string data(n, '\0');
  Rng rng(11);
  for (auto& c : data) c = char(rng.NextBelow(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * n);
  state.SetLabel(Crc32cHardwareEnabled() ? "sse4.2" : "software");
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Crc32cSoftware(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  std::string data(n, '\0');
  Rng rng(12);
  for (auto& c : data) c = char(rng.NextBelow(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        internal::Crc32cExtendSoftware(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_Crc32cSoftware)->Arg(4096);

// Read-path overhead of the page checksum: cached pager reads verify the
// CRC on every BufferPool miss, so this compares Pager::ReadPage with a raw
// File::ReadAt of the same physical page of the same file.
constexpr uint32_t kBenchPageSize = 4096;
constexpr uint64_t kBenchPages = 256;

std::string WritePagerBenchFile() {
  std::string path = MicroDir() + "/crc.pg";
  auto pager = Pager::Create(path, kBenchPageSize);
  CALDERA_CHECK_OK(pager.status());
  std::string payload((*pager)->page_size(), 'p');
  for (uint64_t i = 0; i < kBenchPages; ++i) {
    CALDERA_CHECK_OK((*pager)->AppendPage(payload.data()).status());
  }
  CALDERA_CHECK_OK((*pager)->Sync());
  return path;
}

void BM_PagerReadChecksummed(benchmark::State& state) {
  auto pager = Pager::Open(WritePagerBenchFile());
  CALDERA_CHECK_OK(pager.status());
  std::vector<char> buf(kBenchPageSize);
  Rng rng(13);
  for (auto _ : state) {
    CALDERA_CHECK_OK((*pager)->ReadPage(1 + rng.NextBelow(kBenchPages),
                                        buf.data()));
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * kBenchPageSize);
}
BENCHMARK(BM_PagerReadChecksummed);

void BM_PagerReadUnchecksummed(benchmark::State& state) {
  auto file = File::OpenReadOnly(WritePagerBenchFile());
  CALDERA_CHECK_OK(file.status());
  std::vector<char> buf(kBenchPageSize);
  Rng rng(13);
  for (auto _ : state) {
    const uint64_t id = 1 + rng.NextBelow(kBenchPages);
    CALDERA_CHECK_OK(
        (*file)->ReadAt(id * kBenchPageSize, kBenchPageSize, buf.data()));
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * kBenchPageSize);
}
BENCHMARK(BM_PagerReadUnchecksummed);

void BM_RecordFileRandomRead(benchmark::State& state) {
  std::string path = MicroDir() + "/records.rec";
  {
    auto writer = RecordFileWriter::Create(path);
    CALDERA_CHECK_OK(writer.status());
    for (int i = 0; i < 30000; ++i) {
      CALDERA_CHECK_OK((*writer)->Append(std::string(200, 'r')).status());
    }
    CALDERA_CHECK_OK((*writer)->Finalize());
  }
  auto reader = RecordFileReader::Open(path, 64);
  CALDERA_CHECK_OK(reader.status());
  Rng rng(7);
  std::string out;
  for (auto _ : state) {
    CALDERA_CHECK_OK((*reader)->Get(rng.NextBelow(30000), &out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RecordFileRandomRead);

void BM_RegUpdate(benchmark::State& state) {
  // One Reg update on a paper-scale domain with a query of N links.
  size_t links = static_cast<size_t>(state.range(0));
  uint32_t domain = 352;
  std::vector<std::string> labels;
  for (uint32_t i = 0; i < domain; ++i) {
    labels.push_back("L" + std::to_string(i));
  }
  StreamSchema schema = SingleAttributeSchema("loc", labels);
  std::vector<Predicate> predicates;
  for (size_t i = 0; i < links; ++i) {
    predicates.push_back(Predicate::Equality(
        0, static_cast<uint32_t>(i + 1), "L" + std::to_string(i + 1)));
  }
  RegularQuery query = RegularQuery::Sequence("bench", predicates);
  Cpt cpt = RandomCpt(domain, 0.02, 8);
  Distribution marginal = RandomDistribution(domain, 9);
  RegOperator reg(query, schema);
  reg.Initialize(marginal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.Update(cpt));
  }
}
BENCHMARK(BM_RegUpdate)->Arg(2)->Arg(3)->Arg(4);

// One scan step as a fleet-scan request runs it: the transition record of
// an archived 1680-step routine tag (the first fleet-scan tag at seed 1)
// read from a warm buffer pool and decoded, then a Reg update of the
// fleet query. Cycles through the tag, starting a new segment at its end.
void BM_ScanStep(benchmark::State& state) {
  RoutineSpec spec;
  spec.length = 1680;
  spec.seed = 7919;
  Result<RoutineWorkload> w = MakeRoutineStream(spec);
  CALDERA_CHECK_OK(w.status());
  const std::string dir = MicroDir() + "/scan_step";
  std::filesystem::remove_all(dir);
  CALDERA_CHECK_OK(WriteStream(dir, w->stream));
  auto stream = StoredStream::Open(dir);
  CALDERA_CHECK_OK(stream.status());
  Result<RegularQuery> query = w->EnteredRoom(w->own_office, 3, false);
  CALDERA_CHECK_OK(query.status());
  RegOperator reg(*query, w->schema);
  Distribution first;
  CALDERA_CHECK_OK((*stream)->ReadMarginal(0, &first));
  Cpt transition;
  uint64_t t = (*stream)->length();
  for (auto _ : state) {
    if (t == (*stream)->length()) {
      reg.Reset();
      reg.Initialize(first);
      t = 1;
    }
    CALDERA_CHECK_OK((*stream)->ReadTransition(t++, &transition));
    benchmark::DoNotOptimize(reg.Update(transition));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScanStep);

void BM_SmoothSnippet(benchmark::State& state) {
  // Forward-backward smoothing of one ~30s snippet in a 20-location
  // corridor.
  BuildingLayout layout = BuildingLayout::MakeCorridor({.segments = 10});
  Hmm hmm = layout.MakeHmm({});
  auto h0 = layout.LocationByName("H0");
  CALDERA_CHECK_OK(h0.status());
  hmm.SetInitial(Distribution::Point(*h0));
  PersonSimulator sim(&layout, 10);
  auto room = layout.LocationByName("Room5_0");
  CALDERA_CHECK_OK(room.status());
  auto truth = sim.SimulateRoutine(*h0, {{*room, 15}, {*h0, 0}});
  CALDERA_CHECK_OK(truth.status());
  auto obs = sim.Observe(*truth, hmm);
  CALDERA_CHECK_OK(obs.status());
  StreamSchema schema = layout.MakeSchema();
  for (auto _ : state) {
    auto stream = SmoothToMarkovianStream(hmm, *obs, schema, {});
    CALDERA_CHECK_OK(stream.status());
    benchmark::DoNotOptimize(stream);
  }
}
BENCHMARK(BM_SmoothSnippet);

void BM_SmoothRoutine(benchmark::State& state) {
  // Forward-backward smoothing of one 1680-step routine trace in the
  // 352-location paper building: the first fleet-scan tag at seed 1.
  RoutineSpec spec;
  spec.length = 1680;
  spec.seed = 7919;
  Result<RoutineWorkload> w = MakeRoutineStream(spec);
  CALDERA_CHECK_OK(w.status());
  for (auto _ : state) {
    auto stream = SmoothToMarkovianStream(w->hmm, w->observations, w->schema,
                                          {.truncate_eps = spec.truncate_eps});
    CALDERA_CHECK_OK(stream.status());
    benchmark::DoNotOptimize(stream);
  }
}
BENCHMARK(BM_SmoothRoutine)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace caldera

BENCHMARK_MAIN();
