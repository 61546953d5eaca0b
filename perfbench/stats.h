#ifndef PPRL_PERFBENCH_STATS_H_
#define PPRL_PERFBENCH_STATS_H_

// Summary statistics with the conventions the benchmark reports by:
// medians and quartiles as Python's statistics module computes them, and
// tail percentiles only where at least ten samples lie beyond them.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// The sample median (mean of the two middle values for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> values);

struct Quartiles {
  double q1 = 0;
  double q2 = 0;
  double q3 = 0;
};

/// statistics.quantiles(values, n=4) with the default 'exclusive' method;
/// a single value is its own quartiles.
Quartiles ComputeQuartiles(std::vector<double> values);

/// Samples a tail percentile needs beyond it before it is reported.
inline constexpr size_t kTailSamples = 10;

/// Nearest-rank p-th quantile (p in (0, 1)): the value at rank ceil(p*n).
/// Empty when fewer than kTailSamples samples lie above that rank, i.e.
/// the percentile would rest on a handful of outliers.
std::optional<double> TailPercentile(std::vector<double> values, double p);

/// Smallest sample count for which TailPercentile(p) is defined.
size_t SamplesForTail(double p);

}  // namespace perfbench

#endif  // PPRL_PERFBENCH_STATS_H_
