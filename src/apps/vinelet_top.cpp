// vinelet-top: a live, top-like terminal view of a running cluster.
//
// Spins up an in-process demo cluster, declares a per-library SLO, attaches
// the windowed time-series sampler, and drives an open-loop LNNI workload
// while redrawing one screen per interval:
//
//   * header — invocation completion rate, per-window p50/p99/p999 round
//     trip (from the latest TimeSeriesStore window), active libraries;
//   * per-library SLO columns — samples, violation fraction, burn rate,
//     goodput, breach flags;
//   * per-worker rows — inbox depth, tasks, cache bytes, p95 latency,
//     straggler flag.
//
// On exit the retained time-series ring can be dumped as JSON-lines with
// --timeseries, and the exit code is 3 if the final status carries a
// straggler or SLO breach (0 otherwise), mirroring vinelet-status.
//
//   $ ./vinelet-top [--interval S] [--duration S] [--workers N]
//                   [--rate PER_S] [--slo-latency S] [--timeseries PATH]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "apps/lnni.hpp"
#include "core/cluster.hpp"
#include "poncho/analyzer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/timeseries.hpp"

using namespace vinelet;
using serde::Value;

namespace {

void DrawScreen(const core::ClusterStatus& status,
                const telemetry::TimeSeriesStore& store, double elapsed_s) {
  std::printf("\x1b[2J\x1b[H");
  std::printf("vinelet-top  t=%.1fs\n", elapsed_s);

  const std::vector<telemetry::TimeSeriesWindow> windows = store.Windows();
  if (!windows.empty()) {
    const telemetry::TimeSeriesWindow& w = windows.back();
    const auto c = w.counters.find("manager.invocations_completed");
    const auto h = w.histograms.find("manager.invocation_roundtrip_s");
    const auto g = w.gauges.find("manager.libraries_active");
    std::printf("window %.1f-%.1fs:", w.start_s, w.end_s);
    if (c != w.counters.end())
      std::printf("  done %llu (%.1f/s)",
                  static_cast<unsigned long long>(c->second.delta),
                  c->second.rate);
    if (h != w.histograms.end())
      std::printf("  rt p50 %.4fs p99 %.4fs p999 %.4fs", h->second.p50,
                  h->second.p99, h->second.p999);
    if (g != w.gauges.end()) std::printf("  libs %.0f", g->second);
    std::printf("\n");
  }

  std::printf("\n%-12s %8s %8s %8s %8s %10s %8s  %s\n", "LIBRARY", "SAMPLES",
              "VIOL", "P50", "P99", "GOODPUT/S", "BURN", "FLAGS");
  for (const auto& slo : status.slo) {
    std::string flags;
    if (slo.latency_breached) flags += "LATENCY ";
    if (slo.goodput_breached) flags += "GOODPUT ";
    std::printf("%-12s %8zu %8.3f %8.4f %8.4f %10.2f %8.2f  %s\n",
                slo.library.c_str(), slo.samples, slo.violation_fraction,
                slo.p50_s, slo.p99_s, slo.goodput_per_s, slo.burn_rate,
                flags.c_str());
  }

  std::printf("\n%-8s %8s %8s %12s %10s %10s  %s\n", "WORKER", "INBOX",
              "TASKS", "CACHE B", "P95 s", "SAMPLES", "FLAGS");
  for (const auto& worker : status.workers) {
    std::printf("%-8llu %8llu %8llu %12llu %10.4f %10llu  %s\n",
                static_cast<unsigned long long>(worker.id),
                static_cast<unsigned long long>(worker.inbox_depth),
                static_cast<unsigned long long>(worker.tasks_executed),
                static_cast<unsigned long long>(worker.CacheBytes()),
                worker.p95_latency_s,
                static_cast<unsigned long long>(worker.latency_samples),
                worker.straggler ? "STRAGGLER" : "");
  }
  std::printf("\ntask queue %llu",
              static_cast<unsigned long long>(status.task_queue_depth));
  for (const auto& queue : status.library_queues)
    std::printf("  %s queued %llu", queue.library.c_str(),
                static_cast<unsigned long long>(queue.queued));
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  double interval_s = 0.5;
  double duration_s = 5.0;
  std::size_t workers = 3;
  double rate_per_s = 40.0;
  double slo_latency_s = 0.5;
  std::string timeseries_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      rate_per_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--slo-latency") == 0 && i + 1 < argc) {
      slo_latency_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--timeseries") == 0 && i + 1 < argc) {
      timeseries_path = argv[++i];
    } else {
      std::printf(
          "usage: %s [--interval S] [--duration S] [--workers N]"
          " [--rate PER_S] [--slo-latency S] [--timeseries PATH]\n",
          argv[0]);
      return 2;
    }
  }
  if (interval_s <= 0.0) interval_s = 0.5;

  serde::FunctionRegistry registry;
  apps::LnniConfig lnni;
  lnni.dim = 48;
  lnni.layers = 3;
  lnni.build_passes = 16;
  if (Status status = apps::RegisterLnniFunctions(registry, lnni);
      !status.ok()) {
    std::printf("register failed: %s\n", status.ToString().c_str());
    return 1;
  }

  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  {
    telemetry::SloTarget target;
    target.library = "lnni";
    target.latency_target_s = slo_latency_s;
    target.target_fraction = 0.95;
    target.window_s = 30.0;
    manager_config.slo.targets.push_back(target);
  }
  core::FactoryConfig factory_config;
  factory_config.initial_workers = workers;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        factory_config);
  (void)cluster.Start();
  core::Manager& manager = cluster.manager();

  // Windowed sampler over the cluster's shared registry, one window per
  // refresh interval.
  telemetry::TimeSeriesConfig ts_config;
  ts_config.window_s = interval_s;
  telemetry::TimeSeriesStore store(&manager.telemetry().metrics, ts_config);
  telemetry::BackgroundSampler sampler(&store, &manager.telemetry().clock);
  sampler.Start();

  poncho::Analyzer analyzer(poncho::PackageCatalog::SyntheticMlCatalog(0.005));
  auto env = analyzer.AnalyzeImports({"ml-inference"}).value();
  auto env_decl = manager.DeclareBlob("env", env.tarball,
                                      storage::FileKind::kEnvironment,
                                      /*cache=*/true, /*peer_transfer=*/true,
                                      /*unpack=*/true);
  auto weights_decl =
      manager.DeclareBlob(lnni.weights_file, apps::MakeLnniWeightsBlob(lnni),
                          storage::FileKind::kData, /*cache=*/true);
  auto spec = manager.CreateLibraryFromFunctions("lnni", {"lnni_infer"},
                                                 "lnni_setup", Value());
  manager.AddLibraryInput(*spec, env_decl);
  manager.AddLibraryInput(*spec, weights_decl);
  spec->slots = 4;
  (void)manager.InstallLibrary(*spec);

  // Open-loop submitter: a fixed arrival rate, independent of completions.
  std::atomic<bool> stop_submitting{false};
  std::thread submitter([&] {
    int seed = 0;
    const auto gap = std::chrono::duration<double>(1.0 / rate_per_s);
    while (!stop_submitting.load(std::memory_order_relaxed)) {
      (void)manager.SubmitCall(
          "lnni", "lnni_infer",
          Value::Dict({{"count", Value(8)}, {"seed", Value(seed++)}}));
      std::this_thread::sleep_for(gap);
    }
  });

  const auto started = std::chrono::steady_clock::now();
  core::ClusterStatus last_status;
  while (true) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    if (elapsed >= duration_s) break;
    auto status = manager.QueryStatus();
    if (status.ok()) {
      last_status = *status;
      DrawScreen(last_status, store, elapsed);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }

  stop_submitting.store(true, std::memory_order_relaxed);
  submitter.join();
  (void)manager.WaitAll(60.0);
  sampler.Stop();

  auto final_status = manager.QueryStatus();
  if (final_status.ok()) {
    last_status = *final_status;
    DrawScreen(last_status, store,
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
                   .count());
  }

  if (!timeseries_path.empty()) {
    if (Status status =
            telemetry::WriteStringToFile(timeseries_path, store.ToJsonLines());
        !status.ok()) {
      std::printf("timeseries write failed: %s\n", status.ToString().c_str());
    } else {
      std::printf("wrote %zu window(s) to %s\n", store.Windows().size(),
                  timeseries_path.c_str());
    }
  }

  const bool unhealthy =
      core::AnyStraggler(last_status) || core::AnySloBreach(last_status);
  cluster.Stop();
  return unhealthy ? 3 : 0;
}
