// Figure 8: effect of increasing individual invocations' run time on LNNI's
// execution time.  10k invocations, 100 workers, 16/160/1600 inferences per
// invocation, three reuse levels.  The paper's Q2 finding: the shorter the
// invocation, the more context reuse matters.
//
// With VINELET_TRACE set this bench doubles as the observability smoke
// fixture: the simulator drives the windowed time-series sampler in virtual
// time (BENCH_fig8_invocation_runtime.timeseries.jsonl, same schema the
// runtime's BackgroundSampler emits), and the traced span stream is folded
// into a critical-path blame report cross-checked against AggregatePhases
// (BENCH_fig8_invocation_runtime.blame.json).  CI validates both with
// scripts/check_critical_path.py.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/demo_registry.hpp"
#include "bench/bench_util.hpp"
#include "core/cluster.hpp"
#include "poncho/analyzer.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/export.hpp"
#include "telemetry/timeseries.hpp"

// ---------------------------------------------------------------------------
// Real-runtime leg (--runtime): the same LNNI shape through the actual
// manager/worker runtime instead of the DES, over either the in-process
// bus or real TCP sockets.  Used by CI to check that the TCP transport
// does not distort the Figure 8 workload: both legs run the identical
// workload and the makespans must agree within tolerance (the workload is
// execution-bound, so transport cost should be noise).
// ---------------------------------------------------------------------------

namespace runtime_leg {

using namespace vinelet;
using serde::Value;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LegResult {
  double makespan_s = 0.0;
  double mean_exec_s = 0.0;
  int failed = 0;
};

/// Broadcast weights, install the LNNI library, fan out `invocations`
/// calls, and drain.  The manager must already see its workers.
Result<LegResult> DriveWorkload(core::Manager& manager, int invocations) {
  const apps::LnniConfig lnni = apps::DemoLnniConfig();
  poncho::Analyzer analyzer(poncho::PackageCatalog::SyntheticMlCatalog(0.005));
  auto env = analyzer.AnalyzeImports({"ml-inference"});
  if (!env.ok()) return env.status();
  auto env_decl = manager.DeclareBlob("env", env->tarball,
                                      storage::FileKind::kEnvironment,
                                      /*cache=*/true, /*peer_transfer=*/true,
                                      /*unpack=*/true);
  auto weights_decl =
      manager.DeclareBlob(lnni.weights_file, apps::MakeLnniWeightsBlob(lnni),
                          storage::FileKind::kData, /*cache=*/true);
  const double started_s = NowS();
  (void)manager.BroadcastFile(weights_decl);
  auto spec = manager.CreateLibraryFromFunctions("lnni", {"lnni_infer"},
                                                 "lnni_setup", Value());
  if (!spec.ok()) return spec.status();
  manager.AddLibraryInput(*spec, env_decl);
  manager.AddLibraryInput(*spec, weights_decl);
  spec->slots = 4;
  VINELET_RETURN_IF_ERROR(manager.InstallLibrary(*spec));
  std::vector<core::FuturePtr> futures;
  futures.reserve(static_cast<std::size_t>(invocations));
  for (int i = 0; i < invocations; ++i) {
    futures.push_back(manager.SubmitCall(
        "lnni", "lnni_infer",
        Value::Dict({{"count", Value(8)}, {"seed", Value(i)}})));
  }
  VINELET_RETURN_IF_ERROR(manager.WaitAll(120.0));
  LegResult leg;
  leg.makespan_s = NowS() - started_s;
  double exec_total = 0.0;
  for (const auto& future : futures) {
    auto outcome = future->Wait();
    if (!outcome.ok()) {
      ++leg.failed;
      continue;
    }
    exec_total += outcome->timing.exec_s;
  }
  if (invocations > leg.failed)
    leg.mean_exec_s = exec_total / (invocations - leg.failed);
  return leg;
}

/// One leg: a cluster of `workers` over `kind` (the in-process bus, or a
/// TCP hub with one loopback node per worker, so every frame crosses a
/// socket even though the processes are threads).
Result<LegResult> RunLeg(const serde::FunctionRegistry& registry,
                         telemetry::Telemetry* telemetry,
                         core::TransportKind kind, std::size_t workers,
                         int invocations) {
  auto transport = core::Cluster::NewTransport(kind);
  if (!transport.ok()) return transport.status();
  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  manager_config.telemetry = telemetry;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = workers;
  core::Cluster cluster(*transport, manager_config, factory_config);
  VINELET_RETURN_IF_ERROR(cluster.Start());
  return DriveWorkload(cluster.manager(), invocations);
}

/// Hub-for-external-workers leg (--listen): real cross-process deployment.
Result<LegResult> RunAsHub(const serde::FunctionRegistry& registry,
                           telemetry::Telemetry* telemetry, std::uint16_t port,
                           std::size_t workers, int invocations) {
  auto transport = core::Cluster::NewTransport(core::TransportKind::kTcp, port);
  if (!transport.ok()) return transport.status();
  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  manager_config.telemetry = telemetry;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = 0;
  core::Cluster cluster(*transport, manager_config, factory_config);
  VINELET_RETURN_IF_ERROR(cluster.Start());
  std::printf("[runtime] hub on port %u, waiting for %zu workerd(s)\n", port,
              workers);
  std::fflush(stdout);
  VINELET_RETURN_IF_ERROR(cluster.manager().WaitForWorkers(workers, 60.0));
  auto leg = DriveWorkload(cluster.manager(), invocations);
  // Per-connection counters prove the traffic really crossed sockets.
  for (const auto& conn : cluster.transport().ConnectionsSnapshot()) {
    std::printf("[runtime] conn peer %llu %s: sent %llu B, recv %llu B, "
                "stalls %llu\n",
                static_cast<unsigned long long>(conn.peer),
                conn.remote_addr.c_str(),
                static_cast<unsigned long long>(conn.bytes_sent),
                static_cast<unsigned long long>(conn.bytes_received),
                static_cast<unsigned long long>(conn.backpressure_stalls));
  }
  return leg;
}

/// Tolerance for TCP vs in-process agreement (see EXPERIMENTS.md): the
/// smoke workload is execution-bound, so real-socket overhead must stay
/// inside 2x plus a fixed 0.5 s slack for connection setup.
bool WithinTolerance(const LegResult& inproc, const LegResult& tcp) {
  return tcp.makespan_s <= 2.0 * inproc.makespan_s + 0.5;
}

int Main(bool smoke, std::uint16_t listen_port, std::size_t ext_workers) {
  const std::size_t workers = smoke ? 2 : 4;
  const int invocations = smoke ? 48 : 500;
  serde::FunctionRegistry registry;
  if (Status status = apps::RegisterDemoFunctions(registry); !status.ok()) {
    std::printf("register failed: %s\n", status.ToString().c_str());
    return 1;
  }
  // With VINELET_TRACE set, the real runtime's spans (manager + workers
  // share the session telemetry) export to BENCH_fig8_runtime_leg.trace.json
  // for the same causal-schema gate the DES trace goes through.
  bench::TraceSession session("fig8_runtime_leg");
  if (listen_port != 0) {
    auto leg = RunAsHub(registry, session.telemetry(), listen_port,
                        ext_workers, invocations);
    if (!leg.ok()) {
      std::printf("[runtime] hub leg failed: %s\n",
                  leg.status().ToString().c_str());
      return 1;
    }
    std::printf("[runtime] cross-process: %d invocation(s), makespan %.3f s, "
                "mean exec %.4f s, failed %d\n",
                invocations, leg->makespan_s, leg->mean_exec_s, leg->failed);
    return leg->failed == 0 ? 0 : 1;
  }

  bench::Table table({"Leg", "Workers", "Invocations", "Makespan (s)",
                      "Mean exec (s)", "Failed"});
  auto inproc = RunLeg(registry, session.telemetry(), core::TransportKind::kBus,
                       workers, invocations);
  if (!inproc.ok()) {
    std::printf("[runtime] in-process leg failed: %s\n",
                inproc.status().ToString().c_str());
    return 1;
  }
  table.AddRow({"in-process", std::to_string(workers),
                std::to_string(invocations),
                FormatDouble(inproc->makespan_s, 3),
                FormatDouble(inproc->mean_exec_s, 4),
                std::to_string(inproc->failed)});
  auto tcp = RunLeg(registry, session.telemetry(), core::TransportKind::kTcp,
                    workers, invocations);
  if (!tcp.ok()) {
    std::printf("[runtime] tcp leg failed: %s\n",
                tcp.status().ToString().c_str());
    return 1;
  }
  table.AddRow({"tcp-loopback", std::to_string(workers),
                std::to_string(invocations),
                FormatDouble(tcp->makespan_s, 3),
                FormatDouble(tcp->mean_exec_s, 4),
                std::to_string(tcp->failed)});
  table.Print();
  const bool ok = inproc->failed == 0 && tcp->failed == 0 &&
                  WithinTolerance(*inproc, *tcp);
  std::printf("[runtime] tcp/in-process makespan ratio %.2f (tolerance: "
              "<= 2.0x + 0.5 s) -> %s\n",
              inproc->makespan_s > 0 ? tcp->makespan_s / inproc->makespan_s
                                     : 0.0,
              ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace runtime_leg

int main(int argc, char** argv) {
  using namespace vinelet;
  using namespace vinelet::sim;
  // --smoke: CI-sized run (one case, 500 invocations, 20 workers) — large
  // enough to exercise every trace-emitting code path, small enough for a
  // gating job.  The full run reproduces the paper's 10k x 100 setup.
  bool smoke = false;
  bool runtime = false;
  std::uint16_t listen_port = 0;
  std::size_t ext_workers = 2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--runtime") == 0) {
      runtime = true;
    } else if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      runtime = true;
      listen_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      ext_workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    }
  }
  if (runtime) return runtime_leg::Main(smoke, listen_port, ext_workers);
  const std::size_t invocations = smoke ? 500 : 10000;
  const std::size_t num_workers = smoke ? 20 : 100;
  std::printf("Reproduction of Figure 8: LNNI execution time vs inferences "
              "per invocation (%zu invocations, %zu workers%s)\n",
              invocations, num_workers, smoke ? ", smoke" : "");

  bench::TraceSession session("fig8_invocation_runtime");
  bench::JsonReport report("fig8_invocation_runtime");
  report.SetConfig("invocations=" + std::to_string(invocations) +
                   " workers=" + std::to_string(num_workers) +
                   " smoke=" + (smoke ? std::string("1") : std::string("0")));
  static const WorkloadCosts costs16 = LnniCosts(16);
  static const WorkloadCosts costs160 = LnniCosts(160);
  static const WorkloadCosts costs1600 = LnniCosts(1600);
  const struct {
    int inferences;
    const WorkloadCosts* costs;
    const char* paper_l3_vs_l1;
    const char* paper_l3_vs_l2;
  } cases[] = {{16, &costs16, "81%", "75%"},
               {160, &costs160, "41.3%", "41.2%"},
               {1600, &costs1600, "15.6%", "3.7%"}};

  // Most recent L3 run's virtual-time time-series, written next to the trace
  // when tracing is on.  The DES drives the same TimeSeriesStore the
  // runtime's BackgroundSampler feeds, so the JSONL schema is identical.
  std::string timeseries_jsonl;
  bench::Table table({"Inferences/invoc", "L1 (s)", "L2 (s)", "L3 (s)",
                      "L3 vs L1 (paper/sim)", "L3 vs L2 (paper/sim)",
                      "Mean invoc time (s)"});
  for (const auto& c : cases) {
    if (smoke && c.inferences != 16) continue;
    double makespans[3];
    double mean_runtime = 0;
    for (int i = 0; i < 3; ++i) {
      SimConfig config;
      config.level = static_cast<core::ReuseLevel>(i + 1);
      config.cluster.num_workers = num_workers;
      config.seed = 2024;
      config.telemetry = session.telemetry();
      telemetry::TimeSeriesConfig ts_config;
      ts_config.window_s = 60.0;  // virtual seconds per window
      telemetry::TimeSeriesStore ts_store(&session.telemetry()->metrics,
                                          ts_config);
      if (session.enabled()) config.timeseries = &ts_store;
      if (c.inferences == 16 && config.level == core::ReuseLevel::kL1) {
        // Paper note: "the run with L1 and 16 inferences uses a significant
        // amount (89%) of group 2 machines".
        config.cluster.group_fractions = {0.11, 0.89};
      }
      VineSim sim(config, BuildLnniWorkload(*c.costs, invocations));
      const SimResult result = sim.Run();
      makespans[i] = result.makespan;
      if (config.level == core::ReuseLevel::kL3) {
        mean_runtime = result.run_time.mean();
        if (session.enabled()) timeseries_jsonl = ts_store.ToJsonLines();
      }
      report.AddMeasured("makespan_s L" + std::to_string(i + 1) + " inf" +
                             std::to_string(c.inferences),
                         result.makespan);
    }
    table.AddRow(
        {std::to_string(c.inferences), FormatDouble(makespans[0], 0),
         FormatDouble(makespans[1], 0), FormatDouble(makespans[2], 0),
         std::string(c.paper_l3_vs_l1) + " / " +
             bench::Percent(1.0 - makespans[2] / makespans[0]),
         std::string(c.paper_l3_vs_l2) + " / " +
             bench::Percent(1.0 - makespans[2] / makespans[1]),
         FormatDouble(mean_runtime, 1)});
  }
  table.Print();
  std::printf("Paper mean invocation run times: 6.2 s (16), 40.9 s (160), "
              "379.7 s (1600).\n");
  std::printf("Shape check: the L3 speedup shrinks as invocations grow — "
              "the context-reload overhead is fixed per invocation.\n");

  if (session.enabled()) {
    // Fold the full traced span stream (all levels and cases) into a blame
    // report; Snapshot() leaves the spans for TraceSession::Finish to drain
    // into the Chrome trace.  The simulator's spans are disjoint within a
    // trace, so the embedded AggregatePhases totals must agree with the
    // blame attribution — scripts/check_critical_path.py enforces the same
    // 5-share-point tolerance bench_table5_breakdown applies.
    const std::vector<telemetry::SpanRecord> spans =
        session.telemetry()->tracer.Snapshot();
    std::vector<telemetry::SpanRecord> traced;
    traced.reserve(spans.size());
    for (const telemetry::SpanRecord& span : spans) {
      if (span.trace_id != 0) traced.push_back(span);
    }
    const telemetry::BlameReport blame =
        telemetry::CriticalPathAnalyzer().Analyze(traced);
    const telemetry::PhaseTotals agg = telemetry::AggregatePhases(traced);
    std::string blame_json = telemetry::BlameReportToJson(blame);
    while (!blame_json.empty() && blame_json.back() == '\n')
      blame_json.pop_back();
    std::string out = "{\"blame\":";
    out += blame_json;
    out += ",\"aggregate\":{";
    const std::pair<const char*, double> phases[] = {
        {"submit", agg.submit_s},
        {"dispatch", agg.dispatch_s},
        {"transfer", agg.transfer_s},
        {"unpack", agg.unpack_s},
        {"context-setup", agg.context_setup_s},
        {"deserialize", agg.deserialize_s},
        {"exec", agg.exec_s},
        {"result", agg.result_s}};
    for (std::size_t i = 0; i < 8; ++i) {
      if (i > 0) out += ",";
      out += "\"";
      out += phases[i].first;
      out += "\":";
      out += FormatDouble(phases[i].second, 9);
    }
    out += "}}\n";
    const std::string blame_path = "BENCH_fig8_invocation_runtime.blame.json";
    if (Status status = telemetry::WriteStringToFile(blame_path, out);
        status.ok()) {
      std::printf("[blame] wrote %s (%zu traces, %zu spans)\n",
                  blame_path.c_str(), blame.traces, blame.spans);
    } else {
      std::printf("[blame] failed to write %s: %s\n", blame_path.c_str(),
                  status.ToString().c_str());
    }
    const std::string ts_path =
        "BENCH_fig8_invocation_runtime.timeseries.jsonl";
    if (Status status =
            telemetry::WriteStringToFile(ts_path, timeseries_jsonl);
        status.ok()) {
      std::printf("[timeseries] wrote %s\n", ts_path.c_str());
    } else {
      std::printf("[timeseries] failed to write %s: %s\n", ts_path.c_str(),
                  status.ToString().c_str());
    }
  }
  report.Write();
  return 0;
}
