/// \file metrics.hpp
/// \brief The benchmark's metric catalog, result record and the small
///        statistics it reports with.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Measured untraced on every workload (`--trace 0`).
const std::vector<MetricSpec>& end_to_end_metrics();
/// Measured by the traced run on every workload (`--trace 1`); a layer
/// the workload never enters reads 0.
const std::vector<MetricSpec>& per_layer_metrics();
/// The CEC instances, in run order; each gets a `cec.<name>_s` row.
const std::vector<std::string>& cec_instance_names();

/// Metric names are [A-Za-z0-9_.-]+, start with a letter or digit and
/// are at most 64 characters long.
bool valid_metric_name(const std::string& name);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< Chrome traces go here
  std::string commit = "unknown";      ///< reported with the host
};

/// What one run reports.  `values` must end up holding exactly the
/// catalog for the run's mode; result_json() refuses anything else.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::string> errors;  ///< reference mismatches, etc.

  void set(const std::string& name, double value);
  /// Records a reference mismatch: the run is not correct.
  void fail(const std::string& why);
};

/// The result line: {"correct", "attempted", "failed", "metrics"}.
/// Throws if `r.values` differs from the catalog for `trace`.
std::string result_json(const RunResult& r, bool trace);

/// Host metadata as one JSON object (CPU model, nproc, compiler, build
/// flags, commit, seed).
std::string host_json(const RunConfig& cfg);

/// Percentile (linear interpolation, q in (0, 1)) of \p values.  Throws
/// std::invalid_argument when fewer than 10 samples lie beyond it, the
/// least that makes the figure more than a read of the top few samples.
double percentile(std::vector<double> values, double q);

/// Plain median, for the few per-pass figures of one run.
double median(std::vector<double> values);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
