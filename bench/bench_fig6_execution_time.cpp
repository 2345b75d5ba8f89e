// Figure 6: execution time of the evaluation applications under different
// levels of context reuse, at the paper's scale on the calibrated simulator.
//
//  6a: LNNI, 100k invocations, 150 workers, L1/L2/L3
//  6b: ExaMol, 10k invocations, 150 workers, L1/L2
#include <cstdio>

#include "bench/bench_util.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace {

using namespace vinelet;
using namespace vinelet::sim;

// Set from main's TraceSession; VINELET_TRACE=1 records every run's
// virtual-time phase spans into BENCH_fig6_execution_time.trace.json.
telemetry::Telemetry* g_telemetry = nullptr;

SimResult RunLnni(core::ReuseLevel level, std::size_t invocations,
                  std::size_t workers) {
  SimConfig config;
  config.level = level;
  config.cluster.num_workers = workers;
  config.seed = 2024;
  config.telemetry = g_telemetry;
  static const WorkloadCosts costs = LnniCosts(16);
  VineSim sim(config, BuildLnniWorkload(costs, invocations));
  return sim.Run();
}

SimResult RunExamol(core::ReuseLevel level, std::size_t invocations,
                    std::size_t workers) {
  SimConfig config;
  config.level = level;
  config.cluster.num_workers = workers;
  config.seed = 2024;
  config.telemetry = g_telemetry;
  static const WorkloadCosts simulate = ExamolSimulateCosts();
  static const WorkloadCosts train = ExamolTrainCosts();
  static const WorkloadCosts infer = ExamolInferCosts();
  Rng rng(99);
  VineSim sim(config,
              BuildExamolWorkload(simulate, train, infer, invocations, rng));
  return sim.Run();
}

}  // namespace

int main() {
  std::printf("Reproduction of Figure 6: execution time with different "
              "levels of context reuse (150 workers)\n");
  bench::TraceSession session("fig6_execution_time");
  g_telemetry = session.telemetry();
  bench::JsonReport report("fig6_execution_time");

  bench::Section("Fig 6a: LNNI, 100,000 invocations");
  const SimResult lnni_l1 = RunLnni(core::ReuseLevel::kL1, 100000, 150);
  const SimResult lnni_l2 = RunLnni(core::ReuseLevel::kL2, 100000, 150);
  const SimResult lnni_l3 = RunLnni(core::ReuseLevel::kL3, 100000, 150);
  {
    bench::Table table({"Level", "Paper (s)", "Measured (s)",
                        "Paper cut vs L1", "Measured cut vs L1"});
    const double m1 = lnni_l1.makespan;
    table.AddRow({"L1", "7485", FormatDouble(m1, 0), "-", "-"});
    table.AddRow({"L2", "~3361", FormatDouble(lnni_l2.makespan, 0), "55.1%",
                  bench::Percent(1.0 - lnni_l2.makespan / m1)});
    table.AddRow({"L3", "414", FormatDouble(lnni_l3.makespan, 0), "94.5%",
                  bench::Percent(1.0 - lnni_l3.makespan / m1)});
    table.Print();
    std::printf("L3 vs L2 improvement: paper 87.7%%, measured %s\n",
                bench::Percent(1.0 - lnni_l3.makespan / lnni_l2.makespan)
                    .c_str());
    report.Add("lnni_l1_makespan_s", 7485, m1);
    report.Add("lnni_l2_makespan_s", 3361, lnni_l2.makespan);
    report.Add("lnni_l3_makespan_s", 414, lnni_l3.makespan);
  }

  bench::Section("Fig 6b: ExaMol, 10,000 invocations");
  const SimResult ex_l1 = RunExamol(core::ReuseLevel::kL1, 10000, 150);
  const SimResult ex_l2 = RunExamol(core::ReuseLevel::kL2, 10000, 150);
  {
    bench::Table table({"Level", "Paper (s)", "Measured (s)",
                        "Paper cut vs L1", "Measured cut vs L1"});
    table.AddRow({"L1", "4600", FormatDouble(ex_l1.makespan, 0), "-", "-"});
    table.AddRow({"L2", "3364", FormatDouble(ex_l2.makespan, 0), "26.9%",
                  bench::Percent(1.0 - ex_l2.makespan / ex_l1.makespan)});
    table.Print();
    report.Add("examol_l1_makespan_s", 4600, ex_l1.makespan);
    report.Add("examol_l2_makespan_s", 3364, ex_l2.makespan);
  }

  bench::Section("Run diagnostics");
  {
    bench::Table table({"Run", "Manager util", "Env mgr xfers",
                        "Env peer xfers", "Mean run time (s)"});
    auto row = [&](const char* name, const SimResult& r) {
      table.AddRow({name, bench::Percent(r.manager_utilization),
                    std::to_string(r.env_manager_transfers),
                    std::to_string(r.env_peer_transfers),
                    FormatDouble(r.run_time.mean(), 2)});
    };
    row("LNNI L1", lnni_l1);
    row("LNNI L2", lnni_l2);
    row("LNNI L3", lnni_l3);
    row("ExaMol L1", ex_l1);
    row("ExaMol L2", ex_l2);
    table.Print();
  }
  report.Write();
  // CI runs this bench, so the paper's ordering breaking fails the job.
  const bool ordered = lnni_l1.makespan > lnni_l2.makespan &&
                       lnni_l2.makespan > lnni_l3.makespan &&
                       ex_l1.makespan > ex_l2.makespan;
  std::printf("Shape check: L1 > L2 > L3 (LNNI), L1 > L2 (ExaMol): %s\n",
              ordered ? "holds" : "BROKEN");
  return ordered ? 0 : 1;
}
