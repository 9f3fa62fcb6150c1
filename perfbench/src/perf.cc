// Entry point of the Caldera end-to-end benchmark: runs one workload in
// this process and prints a context block, one detail line per metric, and
// finally one JSON line with every metric the run measured.
//
//   caldera_perf --workload sparse-archive|fleet-scan|live-append
//                --seed N --seconds S --trace 0|1 --data-dir DIR
//                [--git-sha SHA]

#include "perf.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>

#include "markov/kernels.h"

namespace perf {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::TailRank() const {
  // Rank n-11 (0-based) leaves exactly ten samples above it.
  const double n = static_cast<double>(values_.size());
  if (n < 21) return 50.0;
  return 100.0 * (n - 11.0) / (n - 1.0);
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
  std::printf("  %-30s %.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::SetTiming(const std::string& name, const Samples& samples) {
  metrics_[name] = Metric{samples.Median(), "ms"};
  std::printf(
      "  %-30s %.6g ms  (n=%zu, p10=%.6g ms, p%.1f=%.6g ms, max=%.6g ms)\n",
      name.c_str(), samples.Median(), samples.count(), samples.Percentile(10),
      samples.TailRank(), samples.Tail(), samples.Max());
}

void Report::Note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

std::vector<std::string> Report::Names() const {
  std::vector<std::string> names;
  for (const auto& [name, metric] : metrics_) names.push_back(name);
  return names;
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric& m = metrics_.at(names[i]);
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + names[i] + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

bool Ledger::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 10) std::printf("# FAILED: %s\n", what.c_str());
    ++failed_;
  }
  return ok;
}

double SignalMaxDiff(const caldera::QuerySignal& a,
                     const caldera::QuerySignal& b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double worst = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (i > 0 && i < a.size() && a[i].time <= a[i - 1].time) return kInf;
    if (j > 0 && j < b.size() && b[j].time <= b[j - 1].time) return kInf;
    if (j == b.size() || (i < a.size() && a[i].time < b[j].time)) {
      worst = std::max(worst, std::fabs(a[i++].prob));
    } else if (i == a.size() || b[j].time < a[i].time) {
      worst = std::max(worst, std::fabs(b[j++].prob));
    } else {
      worst = std::max(worst, std::fabs(a[i++].prob - b[j++].prob));
    }
  }
  return worst;
}

void CounterTotals::Add(const caldera::ExecStats& s, uint64_t length,
                        double outside_ms) {
  ++queries;
  stream_length += length;
  stats += s;
  wait_ms += outside_ms - s.elapsed_seconds * 1e3;
}

void CounterTotals::Publish(Report* report) const {
  const double q = static_cast<double>(std::max<uint64_t>(queries, 1));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  report->Set("caldera.wait_ms", wait_ms / q, "ms");
  report->Set("reg.updates", static_cast<double>(stats.reg_updates) / q,
              "count");
  report->Set("reg.kernel_frac",
              ratio(stats.kernel_seconds, stats.elapsed_seconds), "fraction");
  report->Set("index.relevant_frac",
              ratio(static_cast<double>(stats.relevant_timesteps),
                    static_cast<double>(stream_length)),
              "fraction");
  report->Set("index.pages", static_cast<double>(stats.index_io.fetches) / q,
              "count");
  report->Set("index.miss_ratio",
              ratio(static_cast<double>(stats.index_io.misses),
                    static_cast<double>(stats.index_io.fetches)),
              "fraction");
  report->Set("index.mc_entry_fetches",
              static_cast<double>(stats.mc_entry_fetches) / q, "count");
  report->Set("index.mc_raw_fetches",
              static_cast<double>(stats.mc_raw_fetches) / q, "count");
  report->Set("index.span_hit_ratio",
              ratio(static_cast<double>(stats.span_cache_hits),
                    static_cast<double>(stats.span_cache_hits +
                                        stats.span_cache_misses)),
              "fraction");
  report->Set("index.topk_pruned",
              static_cast<double>(stats.pruned_candidates) / q, "count");
  report->Set("storage.pages", static_cast<double>(stats.stream_io.fetches) / q,
              "count");
  report->Set("storage.miss_ratio",
              ratio(static_cast<double>(stats.stream_io.misses),
                    static_cast<double>(stats.stream_io.fetches)),
              "fraction");
}

void PublishSetup(const std::vector<double>& setup_seconds, Report* report) {
  Samples samples;
  std::string all;
  for (double s : setup_seconds) {
    samples.Add(s);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", all.empty() ? "" : " ", s);
    all += buf;
  }
  report->Note("set-up seconds per repetition: " + all);
  report->Set("setup_s", samples.Median(), "s");
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace perf

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: caldera_perf --workload "
               "sparse-archive|fleet-scan|live-append --seed N --seconds S "
               "--trace 0|1 --data-dir DIR [--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perf::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage();
    }
  }
  void (*run)(const perf::Options&, perf::Report*, perf::Ledger*) = nullptr;
  if (options.workload == "sparse-archive") run = perf::RunSparseArchive;
  if (options.workload == "fleet-scan") run = perf::RunFleetScan;
  if (options.workload == "live-append") run = perf::RunLiveAppend;
  if (run == nullptr || options.data_dir.empty() || options.seconds <= 0) {
    return Usage();
  }

  std::printf("# context: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# context: nproc=%ld hardware_concurrency=%u build=%s "
              "compiler=%s kernels=%s git=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), PERF_BUILD_TYPE,
              PERF_COMPILER, caldera::kernels::Backend(),
              options.git_sha.c_str());

  // A private scratch directory per process, removed on exit.
  const std::string scratch = options.data_dir + "/" + options.workload +
                              "-" + std::to_string(getpid());
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  perf::Options run_options = options;
  run_options.data_dir = scratch;
  run_options.trace_path = options.data_dir + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".tsv";

  perf::Report report;
  perf::Ledger ledger;
  run(run_options, &report, &ledger);
  std::filesystem::remove_all(scratch);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MB");
  report.Set("error_rate",
             ledger.attempted() == 0
                 ? 1.0
                 : static_cast<double>(ledger.failed()) / ledger.attempted(),
             "fraction");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              ledger.failed() == 0 && ledger.attempted() > 0 ? "true"
                                                             : "false",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()),
              report.Json(report.Names()).c_str());
  return 0;
}
