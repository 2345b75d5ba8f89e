#include "sim/workload.hpp"

#include <algorithm>
#include <cmath>

namespace vinelet::sim {

std::vector<InvocationSpec> BuildLnniWorkload(const WorkloadCosts& costs,
                                              std::size_t n) {
  std::vector<InvocationSpec> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({&costs, 1.0, 0, 0.0});
  return out;
}

std::vector<InvocationSpec> BuildZipfWorkload(const WorkloadCosts& costs,
                                              std::size_t n,
                                              std::size_t num_libraries,
                                              double s, double exec_sigma,
                                              double arrival_rate, Rng& rng) {
  // Inverse-CDF sampling over the (small) finite Zipf support; the CDF is
  // built once and binary-searched per draw.
  const std::size_t libraries = std::max<std::size_t>(1, num_libraries);
  std::vector<double> cdf(libraries);
  double total = 0.0;
  for (std::size_t rank = 0; rank < libraries; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf[rank] = total;
  }
  const double mu = -exec_sigma * exec_sigma / 2.0;  // unit-mean lognormal
  std::vector<InvocationSpec> out;
  out.reserve(n);
  double arrival = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.NextDouble() * total;
    const std::size_t lib = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const double scale =
        exec_sigma > 0.0 ? rng.LogNormal(mu, exec_sigma) : 1.0;
    if (arrival_rate > 0.0)  // Poisson stream: exponential interarrivals
      arrival += -std::log(1.0 - rng.NextDouble()) / arrival_rate;
    out.push_back({&costs, scale, std::min(lib, libraries - 1), arrival});
  }
  return out;
}

std::vector<InvocationSpec> BuildExamolWorkload(
    const WorkloadCosts& simulate, const WorkloadCosts& train,
    const WorkloadCosts& infer, std::size_t n, Rng& rng) {
  std::vector<InvocationSpec> out;
  out.reserve(n);
  // Active-learning round structure: a batch of PM7 simulations gathers
  // data, then the surrogate retrains and scores the candidate pool.
  const std::size_t kRound = 64;  // simulations per round
  const double kSigma = 0.15;     // per-molecule cost variation
  const double kMu = -kSigma * kSigma / 2.0;  // unit-mean lognormal
  std::size_t in_round = 0;
  while (out.size() < n) {
    if (in_round < kRound) {
      out.push_back({&simulate, rng.LogNormal(kMu, kSigma), 0, 0.0});
      ++in_round;
    } else {
      out.push_back({&train, rng.LogNormal(kMu, kSigma * 0.5), 0, 0.0});
      if (out.size() < n)
        out.push_back({&infer, rng.LogNormal(kMu, kSigma * 0.5), 0, 0.0});
      in_round = 0;
    }
  }
  return out;
}

}  // namespace vinelet::sim
