// The three benchmark workloads. Each drives Caldera through its public
// API from this one process, times every operation from outside the call,
// checks every answer, and (with tracing on) replays its queries through
// replay.h for the per-layer split.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "caldera/batch.h"
#include "caldera/system.h"
#include "common/logging.h"
#include "common/rng.h"
#include "index/mc_index.h"
#include "ingest/ingestor.h"
#include "perf.h"
#include "replay.h"
#include "rfid/workload.h"
#include "storage/pager.h"
#include "storage/wal.h"

namespace perf {

using namespace caldera;  // NOLINT

namespace {

// Exact access methods must reproduce the scan's signal to within this
// absolute difference per timestep.
constexpr double kExactTol = 1e-9;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
// Span records kept in memory by a traced run (the rest are only summed).
constexpr size_t kMaxSpans = size_t{1} << 18;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

// Runs `set_up` kSetupReps times, each into a fresh directory under `root`,
// keeps the last result, and reports the median set-up time.
template <typename SetUp>
auto RepeatSetup(const std::string& root, Report* report, SetUp&& set_up) {
  std::vector<double> seconds;
  for (int rep = 0;; ++rep) {
    const std::string dir = root + "/setup" + std::to_string(rep);
    const auto start = Clock::now();
    auto state = set_up(dir);
    seconds.push_back(SecondsSince(start));
    if (rep + 1 == kSetupReps) {
      PublishSetup(seconds, report);
      return state;
    }
    state = {};
    std::filesystem::remove_all(dir);
  }
}

// Prints the stream's on-disk files against the buffer-pool budget each
// opened file gets — what "larger than the cache" and "fits" refer to.
void PrintFootprint(const std::string& stream_dir, size_t pool_pages,
                    Report* report) {
  std::string files;
  uint64_t largest = 0;
  for (const auto& entry : std::filesystem::directory_iterator(stream_dir)) {
    const uint64_t bytes = entry.is_regular_file()
                               ? entry.file_size()
                               : DirBytes(entry.path().string());
    largest = std::max(largest, bytes);
    files += " " + entry.path().filename().string() + "=" +
             std::to_string(bytes);
  }
  report->Note("context: on-disk bytes of " +
               std::filesystem::path(stream_dir).filename().string() + ":" +
               files);
  report->Note("context: pool bytes per opened file=" +
               std::to_string(pool_pages * kDefaultPageSize) + " (" +
               std::to_string(pool_pages) + " pages); largest file is " +
               Fmt("%.2f", static_cast<double>(largest) /
                               static_cast<double>(pool_pages *
                                                   kDefaultPageSize)) +
               "x the pool");
}

// A Fig 8a/9a snippet stream with an exact composition: round(n * density)
// relevant snippets, round(relevant * match_rate) of them matching, in a
// seed-shuffled order. Every snippet is MakeSnippetStream's own (a
// one-snippet call), so the seed varies the walks and observations but not
// how much of the stream is relevant.
SnippetWorkload ComposedSnippetStream(uint32_t n, double density,
                                      double match_rate, uint64_t seed) {
  const auto relevant = static_cast<uint32_t>(std::lround(n * density));
  const auto matching =
      static_cast<uint32_t>(std::lround(relevant * match_rate));
  std::vector<int> kinds(n, 0);  // 0 irrelevant, 1 relevant, 2 matching.
  for (uint32_t i = 0; i < relevant; ++i) kinds[i] = i < matching ? 2 : 1;
  Rng rng(seed);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.NextBelow(i)]);
  }
  SnippetWorkload out;
  for (uint32_t i = 0; i < n; ++i) {
    SnippetStreamSpec spec;
    spec.num_snippets = 1;
    spec.density = kinds[i] > 0 ? 1.0 : 0.0;
    spec.match_rate = kinds[i] == 2 ? 1.0 : 0.0;
    spec.seed = seed * 1000003 + i;
    Result<SnippetWorkload> snippet = MakeSnippetStream(spec);
    CALDERA_CHECK_OK(snippet.status());
    if (i == 0) {
      out = std::move(*snippet);
      continue;
    }
    const Cpt bridge = IndependenceBridge(
        out.stream.marginal(out.stream.length() - 1),
        snippet->stream.marginal(0));
    CALDERA_CHECK_OK(out.stream.Concatenate(snippet->stream, bridge));
  }
  return out;
}

// The tail every workload reports as tail_ms: the 90th percentile, which
// has at least ten samples beyond it from 100 samples on.
double TailOf(const Samples& samples, Report* report) {
  if (samples.count() < 100) {
    report->Note("only " + std::to_string(samples.count()) +
                 " samples: fewer than ten lie beyond the reported p90");
  }
  return samples.Percentile(90);
}

void BuildAllIndexes(Caldera* system, const std::string& name) {
  CALDERA_CHECK_OK(system->archive()->BuildBtc(name, 0));
  CALDERA_CHECK_OK(system->archive()->BuildBtp(name, 0));
  CALDERA_CHECK_OK(system->archive()->BuildMc(name, {.alpha = 2}));
  system->InvalidateStreams();
}

bool SameSignals(const BatchResult& a, const BatchResult& b) {
  if (a.streams.size() != b.streams.size()) return false;
  for (size_t i = 0; i < a.streams.size(); ++i) {
    if (a.streams[i].stream != b.streams[i].stream ||
        a.streams[i].result.signal != b.streams[i].result.signal) {
      return false;
    }
  }
  return true;
}

// Per-layer metrics of the thread-pool fan-out (fleet-scan only; zero on
// the other workloads, which run no batch).
struct BatchTotals {
  Samples busy_par;   // Sum of per-stream ms at nproc threads.
  Samples busy_seq;   // Same at one thread.
  Samples straggler;  // Slowest stream at nproc threads.
};

void PublishBatch(const BatchTotals* b, const Samples* par, const Samples* seq,
                  size_t threads, Report* report) {
  if (b == nullptr) {
    for (const char* name : {"batch.inflation", "batch.speedup",
                             "batch.straggler_frac", "batch.utilization"}) {
      report->Set(name, 0.0, "ratio");
    }
    return;
  }
  report->SetTiming("batch.busy_ms", b->busy_par);
  report->SetTiming("batch.busy_seq_ms", b->busy_seq);
  report->SetTiming("batch.straggler_ms", b->straggler);
  report->Set("batch.inflation", b->busy_par.Median() / b->busy_seq.Median(),
              "ratio");
  report->Set("batch.speedup", seq->Median() / par->Median(), "ratio");
  report->Set("batch.straggler_frac", b->straggler.Median() / par->Median(),
              "ratio");
  report->Set("batch.utilization",
              b->busy_par.Median() /
                  (par->Median() * static_cast<double>(threads)),
              "ratio");
}

// Per-layer metrics of the ingest path (live-append only).
struct IngestTotals {
  IngestStats delta;  // Over the timed window.
  double commit_ms = 0;
  // Probes run by traced runs only.
  bool probed = false;
  double wal_sync_ms = 0;
  double mc_extend_ms = 0;
};

void PublishIngest(const IngestTotals* t, Report* report) {
  if (t == nullptr) {
    report->Set("ingest.wal_bytes_per_step", 0.0, "bytes");
    report->Set("ingest.mc_nodes_per_commit", 0.0, "count");
    report->Set("ingest.btree_inserts_per_step", 0.0, "count");
    report->Set("ingest.wal_sync_frac", 0.0, "fraction");
    report->Set("ingest.mc_extend_frac", 0.0, "fraction");
    return;
  }
  const double steps =
      static_cast<double>(std::max<uint64_t>(t->delta.timesteps_appended, 1));
  const double commits =
      static_cast<double>(std::max<uint64_t>(t->delta.batches_committed, 1));
  report->Set("ingest.wal_bytes_per_step",
              static_cast<double>(t->delta.wal_bytes) / steps, "bytes");
  report->Set("ingest.mc_nodes_per_commit",
              static_cast<double>(t->delta.mc.nodes_recomputed) / commits,
              "count");
  report->Set("ingest.btree_inserts_per_step",
              static_cast<double>(t->delta.btree_inserts) / steps, "count");
  if (t->probed) {
    report->Set("ingest.wal_sync_ms", t->wal_sync_ms, "ms");
    report->Set("ingest.mc_extend_ms", t->mc_extend_ms, "ms");
    report->Set("ingest.wal_sync_frac", t->wal_sync_ms / t->commit_ms,
                "fraction");
    report->Set("ingest.mc_extend_frac", t->mc_extend_ms / t->commit_ms,
                "fraction");
  }
}

void PublishNoLoad(Report* report) {
  report->Set("load.lag_frac", 0.0, "fraction");
}

// ---------------------------------------------------------------------------
// sparse-archive
// ---------------------------------------------------------------------------

struct QueryKind {
  const char* label;
  const char* metric;
  AccessMethodKind method;
  bool variable;
  size_t k;
};

constexpr QueryKind kSparseKinds[] = {
    {"scan", "scan_p50_ms", AccessMethodKind::kScan, false, 0},
    {"btree", "btree_p50_ms", AccessMethodKind::kBTree, false, 0},
    {"topk", "topk_p50_ms", AccessMethodKind::kTopK, false, 1},
    {"auto-fixed", "auto_fixed_p50_ms", AccessMethodKind::kAuto, false, 0},
    {"mc", "mc_p50_ms", AccessMethodKind::kMcIndex, true, 0},
    {"semi", "semi_p50_ms", AccessMethodKind::kSemiIndependent, true, 0},
    {"auto-variable", "auto_variable_p50_ms", AccessMethodKind::kAuto, true,
     0},
};

struct SparseState {
  std::unique_ptr<Caldera> system;
  RegularQuery fixed;
  RegularQuery variable;
  QuerySignal scan_fixed;     // Reference answers, computed in warmup.
  QuerySignal scan_variable;
  QuerySignal mc_variable;
  uint64_t length = 0;
};

SparseState SetUpSparse(const std::string& dir, uint64_t seed) {
  SparseState s;
  SnippetWorkload w = ComposedSnippetStream(3000, 0.05, 0.5, seed);
  s.fixed = w.EnteredRoomFixed();
  s.variable = w.EnteredRoomVariable();
  s.length = w.stream.length();
  s.system = std::make_unique<Caldera>(dir);
  CALDERA_CHECK_OK(s.system->archive()->CreateStream("sparse", w.stream));
  BuildAllIndexes(s.system.get(), "sparse");
  // Warmup: every query kind once. The scans double as reference answers.
  for (const QueryKind& kind : kSparseKinds) {
    ExecOptions exec{.method = kind.method, .k = kind.k};
    auto r = s.system->Execute("sparse", kind.variable ? s.variable : s.fixed,
                               exec);
    CALDERA_CHECK_OK(r.status());
    if (kind.method == AccessMethodKind::kScan) s.scan_fixed = r->signal;
    if (kind.method == AccessMethodKind::kMcIndex) s.mc_variable = r->signal;
  }
  auto scan_variable = s.system->Execute(
      "sparse", s.variable, ExecOptions{.method = AccessMethodKind::kScan});
  CALDERA_CHECK_OK(scan_variable.status());
  s.scan_variable = std::move(scan_variable->signal);
  return s;
}

}  // namespace

void RunSparseArchive(const Options& options, Report* report, Ledger* ledger) {
  SparseState s = RepeatSetup(options.data_dir, report, [&](const std::string& d) {
    return SetUpSparse(d, options.seed);
  });
  report->Note("context: stream length=" + std::to_string(s.length) +
               " timesteps");
  PrintFootprint(s.system->archive()->StreamDir("sparse"), 256, report);

  std::map<std::string, Samples> latency;
  std::map<std::string, CounterTotals> per_kind;
  CounterTotals counters;
  Tracer tracer(kMaxSpans);
  TraceTotals trace;
  double exact_err = 0;
  double semi_err = 0;
  const QuerySignal top1 = TopKOfSignal(s.scan_fixed, 1);

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  while (Clock::now() < deadline) {
    for (const QueryKind& kind : kSparseKinds) {
      const RegularQuery& query = kind.variable ? s.variable : s.fixed;
      const ExecOptions exec{.method = kind.method, .k = kind.k};
      const auto start = Clock::now();
      Result<QueryResult> r = s.system->Execute("sparse", query, exec);
      const double ms = MsBetween(start, Clock::now());
      if (!r.ok()) {
        ledger->Check(false, std::string(kind.label) + ": " +
                                 r.status().ToString());
        continue;
      }
      bool right = true;
      switch (kind.method) {
        case AccessMethodKind::kScan:
          right = r->signal == s.scan_fixed;
          break;
        case AccessMethodKind::kTopK:
          right = r->signal.size() == 1 && top1.size() == 1 &&
                  r->signal[0].time == top1[0].time &&
                  std::fabs(r->signal[0].prob - top1[0].prob) <= kExactTol;
          break;
        case AccessMethodKind::kSemiIndependent:
          // The declared approximation: its error is reported, not judged.
          semi_err = std::max(semi_err, SignalMaxDiff(r->signal, s.mc_variable));
          break;
        default: {
          const double err = SignalMaxDiff(
              r->signal, kind.variable ? s.scan_variable : s.scan_fixed);
          exact_err = std::max(exact_err, err);
          right = err <= kExactTol;
        }
      }
      if (!ledger->Check(right, std::string(kind.label) +
                                    " answer differs from the scan's")) {
        continue;
      }
      latency[kind.metric].Add(ms);
      counters.Add(r->stats, s.length, ms);
      per_kind[kind.label].Add(r->stats, s.length, ms);
      if (options.trace) {
        Result<ReplayResult> replay =
            ReplayQuery(s.system.get(), "sparse", query, exec, &tracer);
        if (ledger->Check(replay.ok() && ReplayMatches(*replay, *r),
                          std::string("replay of ") + kind.label +
                              " differs from Execute")) {
          trace.Add(*replay, ms);
        }
      }
    }
  }

  // The headline figures weigh every query kind alike: geometric means of
  // the per-kind 10th percentiles, medians and 90th percentiles.
  std::vector<double> lows;
  std::vector<double> medians;
  std::vector<double> tails;
  Samples any_auto;
  for (const QueryKind& kind : kSparseKinds) {
    const Samples& samples = latency[kind.metric];
    report->SetTiming(kind.metric, samples);
    lows.push_back(samples.Percentile(10));
    medians.push_back(samples.Median());
    tails.push_back(TailOf(samples, report));
    if (kind.method == AccessMethodKind::kAuto) {
      for (double v : samples.values()) any_auto.Add(v);
    }
  }
  report->SetTiming("auto_p50_ms", any_auto);
  report->Set("p10_ms", GeoMean(lows), "ms");
  report->Set("p50_ms", GeoMean(medians), "ms");
  report->Set("tail_ms", GeoMean(tails), "ms");
  for (const auto& [label, totals] : per_kind) {
    const double q = static_cast<double>(totals.queries);
    report->Note(
        "per query, " + label + ": reg.updates=" +
        Fmt("%.0f", static_cast<double>(totals.stats.reg_updates) / q) +
        " relevant=" +
        Fmt("%.0f", static_cast<double>(totals.stats.relevant_timesteps) / q) +
        " storage.pages=" +
        Fmt("%.0f", static_cast<double>(totals.stats.stream_io.fetches) / q) +
        " storage.misses=" +
        Fmt("%.0f", static_cast<double>(totals.stats.stream_io.misses) / q) +
        " index.pages=" +
        Fmt("%.0f", static_cast<double>(totals.stats.index_io.fetches) / q) +
        " span.hits=" +
        Fmt("%.0f", static_cast<double>(totals.stats.span_cache_hits) / q) +
        " span.misses=" +
        Fmt("%.0f", static_cast<double>(totals.stats.span_cache_misses) / q));
  }
  report->Note("exact methods vs scan: max |difference| = " +
               Fmt("%.3g", exact_err));
  report->Set("reg.semi_max_err", semi_err, "abs");
  counters.Publish(report);
  PublishBatch(nullptr, nullptr, nullptr, 0, report);
  PublishIngest(nullptr, report);
  PublishNoLoad(report);
  if (options.trace) {
    trace.Publish(tracer, report);
    if (!tracer.Write(options.trace_path)) {
      ledger->Check(false, "writing " + options.trace_path);
    }
  }
}

// ---------------------------------------------------------------------------
// fleet-scan
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kFleetTags = 32;
constexpr int kFleetReplayRounds = 3;

struct FleetState {
  std::unique_ptr<Caldera> system;
  RegularQuery query;
  std::vector<std::string> names;
  std::vector<uint64_t> lengths;
  size_t pool_pages = 256;
  BatchOptions seq;  // The scan batch at one thread.
  BatchOptions par;  // The same at nproc threads.
  BatchResult reference;  // One-thread answer, computed in warmup.
};

FleetState SetUpFleet(const std::string& dir, uint64_t seed, size_t threads) {
  FleetState s;
  s.system = std::make_unique<Caldera>(dir);
  uint64_t largest_file = 0;
  for (size_t i = 0; i < kFleetTags; ++i) {
    RoutineSpec spec;
    spec.length = 1680;
    spec.seed = seed * 7919 + i;
    Result<RoutineWorkload> w = MakeRoutineStream(spec);
    CALDERA_CHECK_OK(w.status());
    char name[16];
    std::snprintf(name, sizeof(name), "tag%02zu", i);
    s.names.push_back(name);
    s.lengths.push_back(w->stream.length());
    CALDERA_CHECK_OK(s.system->archive()->CreateStream(name, w->stream));
    if (i == 0) {
      Result<RegularQuery> q = w->EnteredRoom(w->own_office, 3, false);
      CALDERA_CHECK_OK(q.status());
      s.query = *q;
    }
    for (const auto& entry : std::filesystem::directory_iterator(
             s.system->archive()->StreamDir(name))) {
      if (entry.is_regular_file()) {
        largest_file = std::max<uint64_t>(largest_file, entry.file_size());
      }
    }
  }
  // Every tag's files fit its pools: the scan decodes cached pages.
  s.pool_pages = std::max<size_t>(
      256, static_cast<size_t>(largest_file / kDefaultPageSize) + 16);
  s.seq.exec = ExecOptions{.method = AccessMethodKind::kScan,
                           .pool_pages = s.pool_pages};
  s.seq.streams = s.names;
  s.seq.num_threads = 1;
  s.par = s.seq;
  s.par.num_threads = threads;
  Result<BatchResult> reference = ExecuteBatch(s.system.get(), s.query, s.seq);
  CALDERA_CHECK_OK(reference.status());
  s.reference = std::move(*reference);
  CALDERA_CHECK_OK(ExecuteBatch(s.system.get(), s.query, s.par).status());
  return s;
}

}  // namespace

void RunFleetScan(const Options& options, Report* report, Ledger* ledger) {
  const size_t threads =
      static_cast<size_t>(std::max<long>(1, sysconf(_SC_NPROCESSORS_ONLN)));
  FleetState s = RepeatSetup(options.data_dir, report, [&](const std::string& d) {
    return SetUpFleet(d, options.seed, threads);
  });
  report->Note("context: " + std::to_string(kFleetTags) + " tags of " +
               std::to_string(s.lengths[0]) + " timesteps; batch threads=" +
               std::to_string(threads) + " vs 1");
  PrintFootprint(s.system->archive()->StreamDir(s.names[0]), s.pool_pages,
                 report);

  Samples par_ms;
  Samples seq_ms;
  BatchTotals batch;
  CounterTotals counters;
  Tracer tracer(kMaxSpans);
  TraceTotals trace;
  // Each tag's latest one-thread execution time, seen from outside.
  std::vector<double> outside_ms(s.names.size(), 0.0);

  auto run_batch = [&](const BatchOptions& opts, Samples* makespan,
                       Samples* busy, double* ms_out) -> Result<BatchResult> {
    const auto start = Clock::now();
    Result<BatchResult> r = ExecuteBatch(s.system.get(), s.query, opts);
    const double ms = MsBetween(start, Clock::now());
    *ms_out = ms;
    const bool right = r.ok() && SameSignals(*r, s.reference);
    if (!ledger->Check(right, "batch at " + std::to_string(opts.num_threads) +
                                  " threads: " +
                                  (r.ok() ? "output differs from 1 thread"
                                          : r.status().ToString()))) {
      return Status::Internal("failed batch");
    }
    makespan->Add(ms);
    busy->Add(r->TotalSeconds() * 1e3);
    return r;
  };

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  while (Clock::now() < deadline) {
    double makespan = 0;
    Result<BatchResult> p =
        run_batch(s.par, &par_ms, &batch.busy_par, &makespan);
    if (p.ok()) {
      double slowest = 0;
      for (const BatchStreamResult& r : p->streams) {
        slowest = std::max(slowest, r.result.stats.elapsed_seconds * 1e3);
      }
      batch.straggler.Add(slowest);
    }
    Result<BatchResult> q =
        run_batch(s.seq, &seq_ms, &batch.busy_seq, &makespan);
    if (!q.ok()) continue;
    // Each stream's share of the sequential makespan its execution does
    // not cover (stream open, locking, batch bookkeeping).
    const double share = (makespan - q->TotalSeconds() * 1e3) /
                         static_cast<double>(q->streams.size());
    for (size_t i = 0; i < q->streams.size(); ++i) {
      const QueryResult& r = q->streams[i].result;
      outside_ms[i] = r.stats.elapsed_seconds * 1e3 + share;
      counters.Add(r.stats, s.lengths[i], outside_ms[i]);
    }
  }

  // The replay runs after the timed window, not between batches: replaying
  // every tag between batches left later nproc-thread batches no faster
  // than one thread (see perfbench/NOTES.md), which would misstate the
  // batch metrics of traced runs.
  for (int round = 0; options.trace && round < kFleetReplayRounds; ++round) {
    for (size_t i = 0; i < s.names.size(); ++i) {
      Result<ReplayResult> replay = ReplayQuery(
          s.system.get(), s.names[i], s.query, s.seq.exec, &tracer);
      if (ledger->Check(
              replay.ok() && ReplayMatches(*replay, s.reference.streams[i].result),
              "replay of " + s.names[i] + " differs from Execute")) {
        trace.Add(*replay, outside_ms[i]);
      }
    }
  }

  report->SetTiming("batch_p50_ms", par_ms);
  report->SetTiming("batch_seq_p50_ms", seq_ms);
  report->Set("p10_ms", par_ms.Percentile(10), "ms");
  report->Set("p50_ms", par_ms.Median(), "ms");
  report->Set("tail_ms", TailOf(par_ms, report), "ms");
  report->Set("reg.semi_max_err", 0.0, "abs");
  counters.Publish(report);
  PublishBatch(&batch, &par_ms, &seq_ms, threads, report);
  PublishIngest(nullptr, report);
  PublishNoLoad(report);
  if (options.trace) {
    trace.Publish(tracer, report);
    if (!tracer.Write(options.trace_path)) {
      ledger->Check(false, "writing " + options.trace_path);
    }
  }
}

// ---------------------------------------------------------------------------
// live-append
// ---------------------------------------------------------------------------

namespace {

// Open-loop tick rate: a constant, about a third of what one core sustains.
constexpr double kTickHz = 10.0;
constexpr uint32_t kLiveSnippets = 1000;  // ~29k archived timesteps.
constexpr int kWarmTicks = 3;
constexpr int kMicroReps = 20;  // WAL-sync and MC-extend repetitions.

struct LiveState {
  std::unique_ptr<Caldera> system;
  std::unique_ptr<StreamIngestor> ingestor;
  RegularQuery variable;
  MarkovianStream full;  // Archived prefix plus the timesteps to append.
  uint64_t next = 0;     // Next timestep of `full` to append.
};

Status AppendOne(LiveState* s) {
  CALDERA_RETURN_IF_ERROR(s->ingestor->Append(
      {{s->full.marginal(s->next), s->full.transition(s->next)}}));
  ++s->next;
  return Status::Ok();
}

const ExecOptions kMcExec{.method = AccessMethodKind::kMcIndex};

LiveState SetUpLive(const std::string& dir, uint64_t seed, double seconds) {
  LiveState s;
  SnippetWorkload prefix = ComposedSnippetStream(kLiveSnippets, 0.05, 0.5, seed);
  // Enough appendable timesteps for every tick plus the MC-extend probe
  // (snippets are at least ~20 timesteps long).
  const auto ticks = static_cast<uint32_t>(seconds * kTickHz) + kWarmTicks +
                     kMicroReps + 16;
  SnippetWorkload tail =
      ComposedSnippetStream(ticks / 20 + 2, 0.05, 0.5, seed ^ 0x7a11);
  s.variable = prefix.EnteredRoomVariable();
  s.full = prefix.stream;
  CALDERA_CHECK_OK(s.full.Concatenate(
      tail.stream,
      IndependenceBridge(prefix.stream.marginal(prefix.stream.length() - 1),
                         tail.stream.marginal(0))));
  s.next = prefix.stream.length();

  s.system = std::make_unique<Caldera>(dir);
  CALDERA_CHECK_OK(s.system->archive()->CreateStream("live", prefix.stream));
  BuildAllIndexes(s.system.get(), "live");
  Result<std::unique_ptr<StreamIngestor>> ingestor =
      s.system->OpenForIngest("live");
  CALDERA_CHECK_OK(ingestor.status());
  s.ingestor = std::move(*ingestor);
  for (int i = 0; i < kWarmTicks; ++i) {
    CALDERA_CHECK_OK(AppendOne(&s));
    CALDERA_CHECK_OK(s.system->Execute("live", s.variable, kMcExec).status());
  }
  return s;
}

// Median ms of Wal::Append + Sync of one `frame_bytes` frame on a scratch
// WAL.
double WalSyncMs(const std::string& path, size_t frame_bytes) {
  Result<std::unique_ptr<Wal>> wal = Wal::Open(path);
  CALDERA_CHECK_OK(wal.status());
  const std::string payload(frame_bytes, 'w');
  Samples ms;
  for (int i = 0; i < kMicroReps; ++i) {
    const auto start = Clock::now();
    CALDERA_CHECK_OK((*wal)->Append(1, payload).status());
    CALDERA_CHECK_OK((*wal)->Sync());
    ms.Add(MsBetween(start, Clock::now()));
    CALDERA_CHECK_OK((*wal)->Reset());
  }
  return ms.Median();
}

// Median ms of McIndex::Extend by one timestep, on a copy of the live MC
// index.
double McExtendMs(const LiveState& s, const std::string& copy_dir) {
  std::filesystem::copy(s.system->archive()->StreamDir("live") + "/mc",
                        copy_dir, std::filesystem::copy_options::recursive);
  TransitionSource source = [&s](uint64_t t, Cpt* out) {
    *out = s.full.transition(t);
    return Status::Ok();
  };
  Samples ms;
  for (int i = 1; i <= kMicroReps; ++i) {
    const auto start = Clock::now();
    CALDERA_CHECK_OK(McIndex::Extend(copy_dir, source, s.next + i));
    ms.Add(MsBetween(start, Clock::now()));
  }
  return ms.Median();
}

}  // namespace

void RunLiveAppend(const Options& options, Report* report, Ledger* ledger) {
  LiveState s = RepeatSetup(options.data_dir, report, [&](const std::string& d) {
    return SetUpLive(d, options.seed, options.seconds);
  });
  report->Note("context: archived length at the timed window=" +
               std::to_string(s.next) + " timesteps; open loop at " +
               Fmt("%.0f", kTickHz) + " ticks/s, one timestep per tick");
  PrintFootprint(s.system->archive()->StreamDir("live"), 256, report);

  const IngestStats before = s.ingestor->stats();
  Samples lag;
  Samples commit;
  Samples fresh;
  CounterTotals counters;
  Tracer tracer(kMaxSpans);
  TraceTotals trace;
  QuerySignal last_signal;

  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kTickHz));
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(options.seconds));
  for (int64_t i = 0;; ++i) {
    const auto due = t0 + i * period;
    if (due >= end || s.next >= s.full.length()) break;
    std::this_thread::sleep_until(due);
    lag.Add(MsBetween(due, Clock::now()));
    const Status appended = AppendOne(&s);
    const auto committed = Clock::now();
    if (!ledger->Check(appended.ok(), "append: " + appended.ToString())) break;
    commit.Add(MsBetween(due, committed));

    Result<QueryResult> r = s.system->Execute("live", s.variable, kMcExec);
    const auto answered = Clock::now();
    // The answer must cover the new timestep: the handle Execute used
    // (cached until the next commit) has the appended length.
    Result<std::shared_ptr<ArchivedStream>> handle =
        s.system->GetStream("live");
    const bool current =
        r.ok() && handle.ok() && (*handle)->length() == s.next;
    if (!ledger->Check(current, "query after append: " +
                                    (r.ok() ? std::string("stale answer")
                                            : r.status().ToString()))) {
      continue;
    }
    fresh.Add(MsBetween(due, answered));
    counters.Add(r->stats, s.next, MsBetween(committed, answered));
    last_signal = r->signal;
    if (options.trace) {
      // Back to the state Execute saw: a reopened handle, empty span cache.
      s.system->NotifyStreamMutation();
      Result<ReplayResult> replay =
          ReplayQuery(s.system.get(), "live", s.variable, kMcExec, &tracer);
      if (ledger->Check(replay.ok() && ReplayMatches(*replay, *r),
                        "replay of the live query differs from Execute")) {
        trace.Add(*replay, MsBetween(committed, answered));
      }
    }
  }

  // Open-loop honesty: a generator falling further behind means the rate
  // exceeded capacity, and the latencies below describe a queue.
  const std::vector<double>& lags = lag.values();
  const size_t quarter = std::max<size_t>(lags.size() / 4, 1);
  Samples first_lags;
  Samples last_lags;
  for (size_t i = 0; i < lags.size(); ++i) {
    if (i < quarter) first_lags.Add(lags[i]);
    if (i + quarter >= lags.size()) last_lags.Add(lags[i]);
  }
  const double period_ms = 1e3 / kTickHz;
  const bool saturated =
      last_lags.Median() - first_lags.Median() > 0.5 * period_ms;
  ledger->Check(!saturated, "open loop saturated: generator lag grew from " +
                                Fmt("%.1f", first_lags.Median()) + " to " +
                                Fmt("%.1f", last_lags.Median()) +
                                " ms; latencies describe a queue");
  report->Note(std::string("saturated=") + (saturated ? "yes" : "no"));

  // The live stream must end bit-identical to an archive built offline at
  // the final length.
  {
    MarkovianStream offline(s.full.schema());
    for (uint64_t t = 0; t < s.next; ++t) {
      offline.Append(s.full.marginal(t),
                     t == 0 ? Cpt() : s.full.transition(t));
    }
    CALDERA_CHECK_OK(s.system->archive()->CreateStream("offline", offline));
    BuildAllIndexes(s.system.get(), "offline");
    Result<QueryResult> oracle =
        s.system->Execute("offline", s.variable, kMcExec);
    ledger->Check(oracle.ok() && oracle->signal == last_signal,
                  "live signal differs from an offline build at length " +
                      std::to_string(s.next));
  }

  // Commit and freshness medians by fifth of the window: a slow stretch of
  // the host's disk shows as one or two slow fifths.
  std::string fifths;
  for (const auto& [label, samples] :
       {std::pair{" commit", &commit}, std::pair{"; fresh", &fresh}}) {
    fifths += label;
    const std::vector<double>& v = samples->values();
    for (size_t f = 0; f < 5; ++f) {
      Samples part;
      for (size_t i = f * v.size() / 5; i < (f + 1) * v.size() / 5; ++i) {
        part.Add(v[i]);
      }
      fifths += Fmt(" %.2f", part.Median());
    }
  }
  report->Note("p50 by fifth of the window (ms):" + fifths);
  report->SetTiming("commit_p50_ms", commit);
  report->SetTiming("fresh_p50_ms", fresh);
  if (fresh.count() >= 200) {
    report->Set("fresh_p95_ms", fresh.Percentile(95), "ms");
  } else {
    report->Note("fresh_p95_ms not reported: " +
                 std::to_string(fresh.count()) +
                 " samples leave fewer than ten beyond p95");
  }
  report->SetTiming("load.lag_ms", lag);
  report->Set("load.lag_frac", lag.Median() / period_ms, "fraction");
  report->Set("p10_ms", fresh.Percentile(10), "ms");
  report->Set("p50_ms", fresh.Median(), "ms");
  report->Set("tail_ms", TailOf(fresh, report), "ms");
  report->Set("reg.semi_max_err", 0.0, "abs");
  counters.Publish(report);
  PublishBatch(nullptr, nullptr, nullptr, 0, report);

  IngestTotals ingest;
  const IngestStats& after = s.ingestor->stats();
  ingest.delta.batches_committed =
      after.batches_committed - before.batches_committed;
  ingest.delta.timesteps_appended =
      after.timesteps_appended - before.timesteps_appended;
  ingest.delta.wal_bytes = after.wal_bytes - before.wal_bytes;
  ingest.delta.btree_inserts = after.btree_inserts - before.btree_inserts;
  ingest.delta.mc.nodes_recomputed =
      after.mc.nodes_recomputed - before.mc.nodes_recomputed;
  ingest.commit_ms = commit.Median();
  if (options.trace) {
    const size_t frame = static_cast<size_t>(
        ingest.delta.wal_bytes /
        std::max<uint64_t>(ingest.delta.batches_committed, 1));
    ingest.wal_sync_ms = WalSyncMs(options.data_dir + "/probe.wal", frame);
    ingest.mc_extend_ms = McExtendMs(s, options.data_dir + "/mc_copy");
    ingest.probed = true;
  }
  PublishIngest(&ingest, report);
  if (options.trace) {
    trace.Publish(tracer, report);
    if (!tracer.Write(options.trace_path)) {
      ledger->Check(false, "writing " + options.trace_path);
    }
  }
}

}  // namespace perf
