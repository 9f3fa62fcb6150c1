// Shared pieces of the Caldera end-to-end benchmark: latency samples with
// the benchmark's percentile rules, the named-metric report every run
// prints, the operation/failure ledger behind `error_rate`, and the
// workload entry points.

#ifndef CALDERA_PERFBENCH_PERF_H_
#define CALDERA_PERFBENCH_PERF_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "caldera/access_method.h"

namespace perf {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One run's command-line settings.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for archives (inside the checkout).
  std::string data_dir;
  /// Where a traced run writes its spans.
  std::string trace_path;
  std::string git_sha = "unknown";
};

/// Latency samples. Percentiles interpolate linearly between order
/// statistics.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  /// The highest percentile with at least ten samples beyond it,
  /// 100 * (n - 11) / (n - 1); the median below 21 samples.
  double TailRank() const;
  double Tail() const { return Percentile(TailRank()); }
  double Max() const;
  /// In the order added.
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// The named metrics of one run. Every metric is printed as a detail line
/// when set and again in the run's final JSON line; perfbench/run.py keeps
/// the ones BENCHMARK.json declares for the run's mode.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Sets `name` to the median of `samples` and prints the sample count and
  /// the tail percentile beside it.
  void SetTiming(const std::string& name, const Samples& samples);
  void Note(const std::string& line);  // A free-form detail line.
  /// Every metric set so far, sorted.
  std::vector<std::string> Names() const;
  /// `{"name": {"value": v, "unit": u}, ...}` for `names`, all of which must
  /// be set.
  std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

/// Operations attempted and failed (an error status or a wrong answer).
class Ledger {
 public:
  /// Counts one operation; prints the first few failures.
  bool Check(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Largest |a(t) - b(t)| over the union of the two signals' timesteps, a
/// missing timestep reading as probability 0 (exact methods omit timesteps
/// they proved irrelevant). Both signals must be sorted by time; an
/// unsorted or duplicated signal yields +infinity.
double SignalMaxDiff(const caldera::QuerySignal& a,
                     const caldera::QuerySignal& b);

/// Per-query counters read from ExecStats, summed over a set of queries.
struct CounterTotals {
  uint64_t queries = 0;
  uint64_t stream_length = 0;  // Summed per query.
  caldera::ExecStats stats;
  double wait_ms = 0;  // Outside latency minus elapsed_seconds.

  void Add(const caldera::ExecStats& s, uint64_t length, double outside_ms);
  /// Sets the query-counter per-layer metrics (per-query means and ratios).
  void Publish(Report* report) const;
};

// The workloads. Each sets its end-to-end metrics (and, when tracing, its
// per-layer metrics) in `report` and counts its operations in `ledger`.
void RunSparseArchive(const Options& options, Report* report, Ledger* ledger);
void RunFleetScan(const Options& options, Report* report, Ledger* ledger);
void RunLiveAppend(const Options& options, Report* report, Ledger* ledger);

/// Median of the setup times of repeated set-ups, reported as setup_s.
void PublishSetup(const std::vector<double>& setup_seconds, Report* report);

/// Bytes of the regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);

}  // namespace perf

#endif  // CALDERA_PERFBENCH_PERF_H_
