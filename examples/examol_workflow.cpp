// ExaMol example: the paper's molecular-design application at laptop scale.
//
// An active-learning loop over the function-call API: each round simulates
// a batch of candidate molecules (PM7 stand-in), retrains the surrogate on
// everything simulated so far, scores a large candidate pool, and picks the
// next batch from the surrogate's favorites.  Function contexts (the
// basis-set table) are retained by one library hosting all three function
// classes.  (See dag_pipeline.cpp for the mini-Parsl DAG layer.)
//
//   $ ./examol_workflow [rounds]
#include <cstdio>
#include <cstdlib>
#include <set>

#include "apps/examol.hpp"
#include "core/cluster.hpp"

using namespace vinelet;
using serde::Value;
using serde::ValueList;

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 4;
  const int batch_size = 16;
  const int pool_size = 400;

  serde::FunctionRegistry registry;
  apps::ExamolConfig chem;
  chem.feature_dim = 12;
  chem.optimize_steps = 120;
  if (Status status = apps::RegisterExamolFunctions(registry, chem);
      !status.ok()) {
    std::printf("register failed: %s\n", status.ToString().c_str());
    return 1;
  }

  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = 2;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        factory_config);
  (void)cluster.Start();
  core::Manager& manager = cluster.manager();

  // Discover + distribute + retain the chemistry context: one library
  // hosting all three functions, with the basis set as shared input data.
  auto basis_decl =
      manager.DeclareBlob(chem.basis_file, apps::MakeBasisSetBlob(chem),
                          storage::FileKind::kData, true, true);
  auto spec = manager.CreateLibraryFromFunctions(
      "examol", {"examol_simulate", "examol_train", "examol_infer"},
      "examol_setup", Value());
  if (!spec.ok()) {
    std::printf("library failed: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  manager.AddLibraryInput(*spec, basis_decl);
  spec->slots = 8;
  spec->exec_mode = core::ExecMode::kFork;
  (void)manager.InstallLibrary(*spec);

  std::set<std::int64_t> simulated;
  ValueList all_results;
  std::vector<std::int64_t> batch;
  for (int i = 0; i < batch_size; ++i) batch.push_back(i);
  double best_energy = 1e300;
  std::int64_t best_molecule = -1;

  for (int round = 0; round < rounds; ++round) {
    // 1. Simulate the current batch concurrently (function calls against
    //    the retained chemistry context).
    std::vector<core::FuturePtr> sims;
    for (std::int64_t molecule : batch) {
      if (simulated.contains(molecule)) continue;
      simulated.insert(molecule);
      sims.push_back(manager.SubmitCall(
          "examol", "examol_simulate",
          Value::Dict({{"molecule", Value(molecule)}})));
    }
    for (auto& future : sims) {
      auto outcome = future->Wait();
      if (!outcome.ok()) {
        std::printf("simulate failed: %s\n",
                    outcome.status().ToString().c_str());
        return 1;
      }
      const double energy = outcome->value.Get("energy").AsFloat();
      if (energy < best_energy) {
        best_energy = energy;
        best_molecule = outcome->value.Get("molecule").AsInt();
      }
      all_results.push_back(outcome->value);
    }

    // 2. Retrain the surrogate on everything so far.
    auto trained = manager
                       .SubmitCall("examol", "examol_train",
                                   Value::Dict({{"results",
                                                 Value(all_results)}}))
                       ->Wait();
    if (!trained.ok()) {
      std::printf("train failed: %s\n", trained.status().ToString().c_str());
      return 1;
    }

    // 3. Score the candidate pool; the surrogate's favorites become the
    //    next batch (the acquisition step).
    auto scored = manager
                      .SubmitCall("examol", "examol_infer",
                                  Value::Dict(
                                      {{"weights",
                                        trained->value.Get("weights")},
                                       {"pool_seed", Value(0)},
                                       {"pool", Value(pool_size)},
                                       {"top_k", Value(batch_size * 3)}}))
                      ->Wait();
    if (!scored.ok()) {
      std::printf("infer failed: %s\n", scored.status().ToString().c_str());
      return 1;
    }
    batch.clear();
    for (const auto& candidate : scored->value.Get("candidates").AsList()) {
      if (batch.size() >= static_cast<std::size_t>(batch_size)) break;
      if (!simulated.contains(candidate.AsInt()))
        batch.push_back(candidate.AsInt());
    }
    std::printf("round %d: %3zu molecules evaluated, best energy %.4f "
                "(molecule %lld)\n",
                round + 1, simulated.size(), best_energy,
                static_cast<long long>(best_molecule));
    if (batch.empty()) break;
  }

  const auto metrics = manager.metrics();
  std::printf("\ninvocations=%llu  libraries deployed=%llu  avg share "
              "value=%.1f\n",
              static_cast<unsigned long long>(metrics.invocations_completed),
              static_cast<unsigned long long>(metrics.libraries_deployed),
              metrics.AvgShareValue());
  cluster.Stop();
  return 0;
}
