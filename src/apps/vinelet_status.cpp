// vinelet-status: live cluster introspection from the command line.
//
// Spins up an in-process demo cluster (manager + workers), drives a small
// LNNI workload through it, and renders Manager::QueryStatus — either twice
// (mid-flight and drained, the default) or continuously with --follow — in
// the human-readable format or as JSON.  The exit code reflects cluster
// health: 0 when the drained status is clean, 3 when any worker carries the
// straggler flag or any library's SLO is breached, so scripts can gate on
// it directly.
//
//   $ ./vinelet-status [--json] [--follow SECONDS] [--workers N]
//                      [--invocations N] [--slo-latency S]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "apps/lnni.hpp"
#include "core/cluster.hpp"
#include "poncho/analyzer.hpp"

using namespace vinelet;
using serde::Value;

namespace {

void PrintStatus(const core::ClusterStatus& status, bool json) {
  if (json) {
    std::printf("%s\n", core::ClusterStatusToJson(status).c_str());
  } else {
    std::printf("%s", core::FormatClusterStatus(status).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  double follow_s = 0.0;
  std::size_t workers = 3;
  int invocations = 48;
  double slo_latency_s = 0.5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--follow") == 0 && i + 1 < argc) {
      follow_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--invocations") == 0 && i + 1 < argc) {
      invocations = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--slo-latency") == 0 && i + 1 < argc) {
      slo_latency_s = std::atof(argv[++i]);
    } else {
      std::printf(
          "usage: %s [--json] [--follow SECONDS] [--workers N]"
          " [--invocations N] [--slo-latency S]\n",
          argv[0]);
      return 2;
    }
  }

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
  if (slo_latency_s > 0.0) {
    telemetry::SloTarget target;
    target.library = "lnni";
    target.latency_target_s = slo_latency_s;
    target.target_fraction = 0.95;
    target.window_s = 60.0;
    manager_config.slo.targets.push_back(target);
  }
  core::FactoryConfig factory_config;
  factory_config.initial_workers = workers;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        factory_config);
  (void)cluster.Start();
  core::Manager& manager = cluster.manager();

  // Seed the cluster: broadcast the weights, install the library, submit.
  poncho::Analyzer analyzer(poncho::PackageCatalog::SyntheticMlCatalog(0.005));
  auto env = analyzer.AnalyzeImports({"ml-inference"}).value();
  auto env_decl = manager.DeclareBlob("env", env.tarball,
                                      storage::FileKind::kEnvironment,
                                      /*cache=*/true, /*peer_transfer=*/true,
                                      /*unpack=*/true);
  auto weights_decl =
      manager.DeclareBlob(lnni.weights_file, apps::MakeLnniWeightsBlob(lnni),
                          storage::FileKind::kData, /*cache=*/true);
  (void)manager.BroadcastFile(weights_decl);

  auto spec = manager.CreateLibraryFromFunctions("lnni", {"lnni_infer"},
                                                 "lnni_setup", Value());
  manager.AddLibraryInput(*spec, env_decl);
  manager.AddLibraryInput(*spec, weights_decl);
  spec->slots = 4;
  (void)manager.InstallLibrary(*spec);
  for (int i = 0; i < invocations; ++i) {
    (void)manager.SubmitCall(
        "lnni", "lnni_infer",
        Value::Dict({{"count", Value(8)}, {"seed", Value(i)}}));
  }

  if (follow_s > 0.0) {
    // Live refresh loop: redraw until the workload drains.
    while (true) {
      auto status = manager.QueryStatus();
      if (!status.ok()) {
        std::printf("status query failed: %s\n",
                    status.status().ToString().c_str());
        return 1;
      }
      if (!json) std::printf("\x1b[2J\x1b[H");
      PrintStatus(*status, json);
      std::fflush(stdout);
      if (manager.WaitAll(0.0).ok()) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(follow_s));
    }
  } else {
    // Mid-flight snapshot: queues, deploying libraries, broadcast progress.
    // JSON mode emits exactly one document (the drained snapshot below) so
    // the output always parses as a single object.
    if (!json) {
      auto midflight = manager.QueryStatus();
      if (!midflight.ok()) {
        std::printf("status query failed: %s\n",
                    midflight.status().ToString().c_str());
        return 1;
      }
      std::printf("=== mid-flight ===\n");
      PrintStatus(*midflight, json);
    }
    (void)manager.WaitAll(120.0);
  }

  auto drained = manager.QueryStatus();
  if (!drained.ok()) {
    std::printf("status query failed: %s\n",
                drained.status().ToString().c_str());
    return 1;
  }
  if (!json) std::printf("\n=== drained ===\n");
  PrintStatus(*drained, json);

  const bool unhealthy =
      core::AnyStraggler(*drained) || core::AnySloBreach(*drained);
  if (unhealthy && !json)
    std::printf("\ncluster unhealthy: straggler or SLO breach flagged\n");

  cluster.Stop();
  return unhealthy ? 3 : 0;
}
