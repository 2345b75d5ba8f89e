// perfbench: wall-clock benchmark of the vinelet runtime over TCP.
//
//   perfbench --workload l3-open|lnni-levels|dag-chain --seed N
//             --seconds S --trace 0|1
//
// Prints a human-readable report, then one `METRIC name value unit samples`
// line per metric and a final `RESULT correct=.. attempted=.. failed=..`
// line (run.py turns these into the benchmark's JSON result).  Exits 1 when
// any result fails verification, 2 on bad arguments.
#include <malloc.h>

#include <cstdio>
#include <string>

#include "common/flags.hpp"
#include "harness/workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold: buffers of 1 MiB and more (broadcast chunks,
  // shared data, inline environments) are mapped and unmapped on free
  // instead of being parked in whichever thread's malloc arena freed them,
  // so rss_peak_mb tracks live memory rather than arena timing.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  auto flags = vinelet::Flags::Parse(argc, argv,
                                     {"workload", "seed", "seconds", "trace"});
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  RunConfig config;
  const std::string workload = flags->GetString("workload");
  auto seed = flags->GetInt("seed", 1);
  auto seconds = flags->GetDouble("seconds", 10.0);
  auto trace = flags->GetInt("trace", 0);
  if (!seed.ok() || !seconds.ok() || !trace.ok() || *seconds <= 0) {
    std::fprintf(stderr, "bad --seed/--seconds/--trace\n");
    return 2;
  }
  config.seed = static_cast<std::uint64_t>(*seed);
  config.seconds = *seconds;
  config.trace = *trace != 0;

  Report report;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0);
  if (workload == "l3-open") {
    RunL3Open(config, report);
  } else if (workload == "lnni-levels") {
    RunLnniLevels(config, report);
  } else if (workload == "dag-chain") {
    RunDagChain(config, report);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
    return 2;
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
