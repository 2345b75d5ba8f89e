// LNNI example: the paper's large-scale neural-network-inference
// application at laptop scale, executed at all three context-reuse levels
// on the real threaded runtime, with measured wall-clock comparison.
//
//   L1 — every task re-ships the environment + weights and rebuilds the
//        model in memory;
//   L2 — environment + weights cached on the worker's disk, model still
//        rebuilt per invocation;
//   L3 — a library retains the built model; invocations carry arguments.
//
//   $ ./lnni_inference [invocations]
#include <cstdio>
#include <cstdlib>

#include "apps/lnni.hpp"
#include "common/clock.hpp"
#include "core/cluster.hpp"
#include "poncho/analyzer.hpp"

using namespace vinelet;
using serde::Value;

int main(int argc, char** argv) {
  const int invocations = argc > 1 ? std::atoi(argv[1]) : 60;
  const int inferences_per_invocation = 16;

  serde::FunctionRegistry registry;
  apps::LnniConfig lnni;
  lnni.dim = 64;
  lnni.layers = 3;
  lnni.build_passes = 24;  // the expensive deterministic "model build"
  if (Status status = apps::RegisterLnniFunctions(registry, lnni);
      !status.ok()) {
    std::printf("register failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const Blob weights = apps::MakeLnniWeightsBlob(lnni);
  poncho::Analyzer analyzer(poncho::PackageCatalog::SyntheticMlCatalog(0.005));

  std::printf("LNNI at laptop scale: %d invocations x %d inferences, "
              "2 workers, ResNet50 stand-in (%zu-wide, %zu layers)\n",
              invocations, inferences_per_invocation, lnni.dim, lnni.layers);

  WallClock clock;
  double elapsed[3] = {0, 0, 0};
  double checksum[3] = {0, 0, 0};

  for (int level = 1; level <= 3; ++level) {
    core::ManagerConfig manager_config;
    manager_config.registry = &registry;
    core::FactoryConfig factory_config;
    factory_config.initial_workers = 2;
    core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                          factory_config);
    (void)cluster.Start();
    core::Manager& manager = cluster.manager();

    const bool cached = level >= 2;  // L1: inline every time
    auto env = analyzer.AnalyzeImports({"ml-inference"}).value();
    auto env_decl =
        manager.DeclareBlob("env", env.tarball,
                            storage::FileKind::kEnvironment, cached, true,
                            /*unpack=*/true);
    auto weights_decl = manager.DeclareBlob(
        lnni.weights_file, weights, storage::FileKind::kData, cached);

    if (level == 3) {
      auto spec = manager.CreateLibraryFromFunctions(
          "lnni", {"lnni_infer"}, "lnni_setup", Value());
      manager.AddLibraryInput(*spec, env_decl);
      manager.AddLibraryInput(*spec, weights_decl);
      spec->resources = core::Resources{16, 32 * 1024, 32 * 1024};
      spec->slots = 8;
      spec->exec_mode = core::ExecMode::kFork;
      (void)manager.InstallLibrary(*spec);
    }

    Stopwatch watch(clock);
    std::vector<core::FuturePtr> futures;
    for (int i = 0; i < invocations; ++i) {
      const Value args = Value::Dict(
          {{"count", Value(inferences_per_invocation)}, {"seed", Value(i)}});
      if (level == 3) {
        futures.push_back(manager.SubmitCall("lnni", "lnni_infer", args));
      } else {
        futures.push_back(manager.SubmitTask("lnni_infer", args,
                                             {env_decl, weights_decl},
                                             core::Resources{2, 4096, 4096}));
      }
    }
    (void)manager.WaitAll(600.0);
    elapsed[level - 1] = watch.Elapsed();
    for (auto& future : futures) {
      auto outcome = future->Wait();
      if (outcome.ok())
        checksum[level - 1] += outcome->value.Get("checksum").AsFloat();
    }
    const auto metrics = manager.metrics();
    std::printf(
        "  L%d: %.2f s  (tasks=%llu, invocations=%llu, mgr transfers=%llu, "
        "peer transfers=%llu)\n",
        level, elapsed[level - 1],
        static_cast<unsigned long long>(metrics.tasks_completed),
        static_cast<unsigned long long>(metrics.invocations_completed),
        static_cast<unsigned long long>(metrics.manager_transfers),
        static_cast<unsigned long long>(metrics.peer_transfers));
    cluster.Stop();
  }

  if (checksum[0] != checksum[1] || checksum[1] != checksum[2]) {
    std::printf("ERROR: results differ across levels!\n");
    return 1;
  }
  std::printf("\nAll levels computed identical results (checksum %.0f).\n",
              checksum[0]);
  std::printf("Execution-time reduction vs L1: L2 %.1f%%, L3 %.1f%% "
              "(paper at cluster scale: 55.1%% and 94.5%%).\n",
              100.0 * (1.0 - elapsed[1] / elapsed[0]),
              100.0 * (1.0 - elapsed[2] / elapsed[0]));
  return 0;
}
