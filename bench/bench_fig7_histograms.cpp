// Figure 7: histograms of invocation run time for the LNNI application
// (100k invocations, 150 workers) at the three levels of context reuse.
// As in the paper, values above 40 s are clipped into the last bin.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/stats.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

int main() {
  using namespace vinelet;
  using namespace vinelet::sim;
  std::printf("Reproduction of Figure 7: invocation run-time histograms, "
              "LNNI 100k invocations, 150 workers\n");

  bench::TraceSession session("fig7_histograms");
  static const WorkloadCosts costs = LnniCosts(16);
  const char* expectations[3] = {
      "paper: most invocations within 12-20 s, long tail",
      "paper: spread around 10-16 s",
      "paper: clustered around 3-7 s"};

  double mean[3], max[3];
  for (int i = 0; i < 3; ++i) {
    const auto level = static_cast<core::ReuseLevel>(i + 1);
    SimConfig config;
    config.level = level;
    config.cluster.num_workers = 150;
    config.seed = 2024;
    config.telemetry = session.telemetry();
    VineSim sim(config, BuildLnniWorkload(costs, 100000));
    const SimResult result = sim.Run();

    Histogram histogram(0.0, 40.0, 20);
    for (double t : result.run_times) histogram.Add(t);

    bench::Section(std::string("Fig 7") + static_cast<char>('a' + i) + ": " +
                   std::string(core::ReuseLevelName(level)) +
                   " context reuse (" + expectations[i] + ")");
    std::printf("%s", histogram.Render(60).c_str());
    std::printf("mean=%.2f s  std=%.2f s  min=%.2f s  max=%.2f s\n",
                result.run_time.mean(), result.run_time.stddev(),
                result.run_time.min(), result.run_time.max());
    mean[i] = result.run_time.mean();
    max[i] = result.run_time.max();
  }
  // CI runs this bench, so the paper's shape breaking fails the job.
  const bool shape = mean[0] > mean[1] && mean[1] > mean[2] &&
                     max[0] > max[1] && max[0] > max[2];
  std::printf("Shape check: mean L1 > L2 > L3, L1 has the longest tail: %s\n",
              shape ? "holds" : "BROKEN");
  return shape ? 0 : 1;
}
