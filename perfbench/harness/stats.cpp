#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

namespace {

/// Nearest rank of percentile q among n samples: the smallest rank with at
/// least q% of samples at or below it.  The epsilon keeps 99.9% of 10000
/// at rank 9990 despite floating-point rounding.
std::size_t NearestRank(double q, std::size_t n) {
  return static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank =
      std::clamp<std::size_t>(NearestRank(q, sorted.size()), 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, 50.0);
}

double BestDecile(std::vector<double> values, bool lower_is_better) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, lower_is_better ? 10.0 : 90.0);
}

double HighestResolvedPercentile(std::size_t count, std::size_t min_beyond) {
  double best = 0.0;
  for (double q : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (count >= NearestRank(q, count) + min_beyond) best = q;
  }
  return best;
}

Summary Summarize(std::vector<double> samples, std::size_t failed) {
  samples.insert(samples.end(), failed,
                 std::numeric_limits<double>::infinity());
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.samples = samples.size();
  s.failed = failed;
  s.median = PercentileSorted(samples, 50.0);
  s.tail_q = HighestResolvedPercentile(samples.size());
  s.tail = s.tail_q > 0 ? PercentileSorted(samples, s.tail_q) : 0.0;
  s.p90 = PercentileSorted(samples, 90.0);
  s.p99 = PercentileSorted(samples, 99.0);
  return s;
}

std::string Summary::Format(const std::string& unit, double scale) const {
  char buf[160];
  if (tail_q > 50) {
    std::snprintf(buf, sizeof(buf), "p50=%.4g p%g=%.4g %s (n=%zu, failed=%zu)",
                  median * scale, tail_q, tail * scale, unit.c_str(), samples,
                  failed);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "p50=%.4g %s (n=%zu, failed=%zu; too few for a tail)",
                  median * scale, unit.c_str(), samples, failed);
  }
  return buf;
}

}  // namespace perfbench
