// Zipf-popularity scheduling sweep: the context-affinity scheduler's steal
// threshold over a skewed multi-library service mix.
//
// The LNNI workloads in the paper pin one function class to the whole
// cluster; a function-centric service serves many libraries with a
// heavy-tailed popularity curve and an open arrival stream (Fig 10's
// regime: far more libraries than the cluster can hold warm at once, so
// the eviction decision is the whole game).  This bench offers an
// identical pre-sampled Poisson/Zipf stream to two steal thresholds:
//   - th=1 displaces idle capacity as soon as a backlog forms: best drain
//     parallelism, so best makespan, while the share-aware victim choice
//     still protects the head libraries;
//   - th=4 (the default) consolidates backlogs through fewer warm
//     instances: fewest cold starts, so best mean/p99 latency, at a small
//     makespan cost from the serial drain tail.
// Reported: makespan, mean and p99 end-to-end latency (finished -
// arrival), affinity hit rate, deploy (cold-start) count, eviction churn,
// batch shape.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vinelet;
  using namespace vinelet::sim;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // Full run: the acceptance configuration — 64 workers (1024 one-slot
  // instance slots), a library universe ~1.5x the slot count, and an
  // arrival rate that keeps the cluster busy without saturating it, so
  // queueing reflects cold-start waste rather than raw capacity.
  const std::size_t num_workers = smoke ? 16 : 64;
  const std::size_t libraries = smoke ? 384 : 1536;
  const std::size_t invocations = smoke ? 1500 : 12000;
  const double arrival_rate = smoke ? 40.0 : 160.0;  // invocations / s
  const double zipf_s = 1.2;
  const double exec_sigma = 0.2;
  std::printf(
      "Zipf-popularity scheduling: steal threshold 1 vs 4 "
      "(%zu invocations at %.0f/s, %zu libraries, %zu workers, s=%.1f%s)\n",
      invocations, arrival_rate, libraries, num_workers, zipf_s,
      smoke ? ", smoke" : "");

  bench::TraceSession session("zipf_popularity");
  static const WorkloadCosts costs = LnniCosts(16);
  Rng workload_rng(7);
  const std::vector<InvocationSpec> workload =
      BuildZipfWorkload(costs, invocations, libraries, zipf_s, exec_sigma,
                        arrival_rate, workload_rng);

  struct Case {
    const char* name;
    const char* key;  // JSON metric prefix
    std::size_t steal_threshold;
  };
  constexpr int kCases = 2;
  const Case cases[kCases] = {{"th=1", "th1", 1}, {"th=4", "th4", 4}};

  SimResult results[kCases];
  double p99_latency[kCases] = {0, 0};
  double mean_latency[kCases] = {0, 0};
  for (int i = 0; i < kCases; ++i) {
    SimConfig config;
    config.level = core::ReuseLevel::kL3;
    config.cluster.num_workers = num_workers;
    config.seed = 2024;
    config.track_trace = true;
    config.scheduler.steal_threshold = cases[i].steal_threshold;
    config.telemetry = session.telemetry();
    VineSim sim(config, workload);
    results[i] = sim.Run();
    std::vector<double> latencies;
    latencies.reserve(results[i].trace.size());
    double total = 0;
    for (const auto& t : results[i].trace) {
      const double latency = t.finished - workload[t.invocation].arrival_s;
      latencies.push_back(latency);
      total += latency;
    }
    p99_latency[i] = Percentile(latencies, 0.99);
    mean_latency[i] =
        latencies.empty() ? 0 : total / static_cast<double>(latencies.size());
  }

  bench::Table table({"Steal threshold", "Makespan", "Mean latency",
                      "p99 latency", "Hit rate", "Deploys", "Evicts", "Steals",
                      "Mean batch"});
  double hit_rate[kCases];
  double mean_batch[kCases];
  for (int i = 0; i < kCases; ++i) {
    const SimResult& r = results[i];
    const double routed =
        static_cast<double>(r.affinity_hits + r.affinity_misses);
    hit_rate[i] =
        routed > 0 ? static_cast<double>(r.affinity_hits) / routed : 0.0;
    mean_batch[i] = r.dispatch_batches > 0
                        ? static_cast<double>(r.dispatch_batched_invocations) /
                              static_cast<double>(r.dispatch_batches)
                        : 0.0;
    table.AddRow({cases[i].name, bench::Seconds(r.makespan, 0),
                  bench::Seconds(mean_latency[i], 2),
                  bench::Seconds(p99_latency[i], 2),
                  bench::Percent(hit_rate[i]),
                  std::to_string(r.libraries_deployed_total),
                  std::to_string(r.autoscale_evicts),
                  std::to_string(r.steals), FormatDouble(mean_batch[i], 2)});
  }
  table.Print();

  std::printf(
      "th=4 vs th=1: makespan %s, mean latency %s, p99 latency %s better.\n",
      bench::Percent(1.0 - results[1].makespan / results[0].makespan).c_str(),
      bench::Percent(1.0 - mean_latency[1] / mean_latency[0]).c_str(),
      bench::Percent(1.0 - p99_latency[1] / p99_latency[0]).c_str());
  std::printf(
      "Shape check: the threshold trades throughput (th=1, parallel drain) "
      "against latency (th=4, fewer cold starts); read the rows as the ends "
      "of one knob.\n");

  bench::JsonReport report("zipf_popularity");
  report.AddMeasured("workers", static_cast<double>(num_workers));
  report.AddMeasured("libraries", static_cast<double>(libraries));
  report.AddMeasured("invocations", static_cast<double>(invocations));
  report.AddMeasured("arrival_rate_per_s", arrival_rate);
  report.AddMeasured("zipf_s", zipf_s);
  for (int i = 0; i < kCases; ++i) {
    const SimResult& r = results[i];
    const std::string key = cases[i].key;
    report.AddMeasured(key + "_makespan_s", r.makespan);
    report.AddMeasured(key + "_mean_latency_s", mean_latency[i]);
    report.AddMeasured(key + "_p99_latency_s", p99_latency[i]);
    report.AddMeasured(key + "_hit_rate", hit_rate[i]);
    report.AddMeasured(key + "_deploys",
                       static_cast<double>(r.libraries_deployed_total));
    report.AddMeasured(key + "_evicts",
                       static_cast<double>(r.autoscale_evicts));
    report.AddMeasured(key + "_steals", static_cast<double>(r.steals));
    report.AddMeasured(key + "_mean_batch", mean_batch[i]);
    report.AddMeasured(key + "_max_batch",
                       static_cast<double>(r.dispatch_max_batch));
  }
  report.Write();
  return 0;
}
