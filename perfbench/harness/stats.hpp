// Latency statistics for the benchmark report.
//
// A timing is reported as its median plus the highest standard percentile
// that still has at least ten samples beyond it (so a p99 is only claimed
// from >= 1000 samples), always with the sample count.  Failed operations
// are counted as +infinity: a request that never completed missed every
// latency target, so failures push percentiles up instead of vanishing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 100]) of an ascending-sorted sample
/// vector; +inf entries sort last.  Returns 0 for an empty vector.
double PercentileSorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted vector (copies); 0 when empty.
double Median(std::vector<double> values);

/// The best decile of per-window figures of one run: the 10th percentile
/// when lower is better (latencies, makespans), the 90th when higher is
/// better (rates).  A shared host slows some windows of a run and not
/// others; the best decile reads the program's own speed from the windows
/// it was left to run in, where a median shifts with the host's load.
/// 0 when empty.
double BestDecile(std::vector<double> values, bool lower_is_better);

/// The highest of {50, 90, 99, 99.9, 99.99} whose nearest rank leaves at
/// least `min_beyond` samples above it; 0 when even the median does not.
double HighestResolvedPercentile(std::size_t count,
                                 std::size_t min_beyond = 10);

struct Summary {
  std::size_t samples = 0;  ///< successes + failures
  std::size_t failed = 0;   ///< counted as +inf
  double median = 0.0;
  double tail_q = 0.0;      ///< HighestResolvedPercentile(samples)
  double tail = 0.0;        ///< value at tail_q
  double p90 = 0.0;         ///< always computed; trust it only when tail_q >= 90
  double p99 = 0.0;         ///< always computed; trust it only when tail_q >= 99

  /// "p50=0.61 p99.9=1.92 ms (n=25000, failed=0)".
  std::string Format(const std::string& unit, double scale = 1.0) const;
};

/// Summarizes successful samples plus `failed` failures (+inf each).
Summary Summarize(std::vector<double> samples, std::size_t failed = 0);

}  // namespace perfbench
