#ifndef PPRL_PERFBENCH_WORKLOAD_H_
#define PPRL_PERFBENCH_WORKLOAD_H_

// What a workload receives from the command line and what it hands back
// for the result line.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;  ///< length of the measured phases
  bool trace = false;   ///< traced run: per-layer metrics instead of end-to-end
  size_t threads = 1;   ///< min(4, nproc)
  std::string linkd;    ///< path of the pprl_linkd binary under test
  std::string workdir;  ///< scratch directory for CSVs, logs, WAL, spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a workload measures. perfbench/run.py keeps, on the result
/// line, the metrics BENCHMARK.json names for the run's mode and moves the
/// rest (workload-specific detail) into the header.
struct WorkloadResult {
  std::vector<Metric> metrics;
  /// Workload sizes for the result header, as (key, value) pairs.
  std::vector<std::pair<std::string, std::string>> sizes;
  /// The repeated samples behind metrics that are medians or percentiles,
  /// summarised (count, min, quartiles, max) in the result header.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One line per failed check, printed to stderr.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Size(const std::string& key, const std::string& value) {
    sizes.emplace_back(key, value);
  }
  void Size(const std::string& key, uint64_t value) { Size(key, std::to_string(value)); }
  void Sample(const std::string& name, std::vector<double> values) {
    samples.emplace_back(name, std::move(values));
  }
  /// Counts one attempted operation, and a failure when !ok.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

/// Figures behind the per-layer metrics every traced workload reports;
/// each workload fills them from its own layers.
struct LayerCounts {
  double encoded_records = 0;  ///< records ClkEncoder encoded
  double probed_records = 0;   ///< records blocking found candidates for
  double candidates = 0;       ///< candidates those records got
  double matches = 0;          ///< candidates scored at or above the threshold
  double channel_bytes = 0;    ///< bytes between owners and linkage unit
  double channel_records = 0;  ///< records those bytes carried
  double retries = 0;          ///< client reconnects and resends
  double overhead_ratio = 0;   ///< traced over untraced wall time, same work
  double crosscheck = 0;       ///< largest disagreement with the program's own instruments
};

/// Adds the per-layer metrics BENCHMARK.json lists, from the run's spans
/// and `counts`.
void AddLayerMetrics(const std::vector<Span>& spans, const LayerCounts& counts,
                     WorkloadResult* result);

WorkloadResult RunBatchLink(const RunOptions& options);
WorkloadResult RunOnlineQuery(const RunOptions& options);
WorkloadResult RunOnlineChurn(const RunOptions& options);

/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();

}  // namespace perfbench

#endif  // PPRL_PERFBENCH_WORKLOAD_H_
