#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  if (n == 1) return {values[0], values[0], values[0]};
  // CPython's statistics.quantiles, method='exclusive', n=4, in exact
  // integer arithmetic on the rescaled ranks.
  double q[3];
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

namespace {

size_t NearestRank(double p, size_t n) {
  const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
}

}  // namespace

std::optional<double> TailPercentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nullopt;
  const size_t rank = NearestRank(p, values.size());
  if (values.size() - rank < kTailSamples) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

size_t SamplesForTail(double p) {
  size_t n = 1;
  while (n - NearestRank(p, n) < kTailSamples) ++n;
  return n;
}

}  // namespace perfbench
