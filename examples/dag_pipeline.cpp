// DAG pipeline example: the mini-Parsl layer over the Vinelet executor
// (the Parsl-TaskVineExecutor integration, paper §3.6).
//
// Builds a map-reduce-style DAG — a fan-out of "square" tasks feeding a
// tree of "sum" reducers — and lets the engine dispatch each node the
// moment its dependencies resolve.  Run in task mode (stateless) or, with
// a library installed, in invocation mode.
//
//   $ ./dag_pipeline [leaves]
#include <cstdio>
#include <cstdlib>

#include "core/cluster.hpp"
#include "dag/dag_engine.hpp"

using namespace vinelet;
using serde::Value;

namespace {

void RegisterFunctions(serde::FunctionRegistry& registry) {
  // DAG functions receive their materialized arguments as a Value::List.
  serde::FunctionDef square;
  square.name = "square";
  square.fn = [](const Value& args,
                 const serde::InvocationEnv&) -> Result<Value> {
    const double x = args.AsList().at(0).AsNumber();
    return Value(x * x);
  };
  (void)registry.RegisterFunction(std::move(square));

  serde::FunctionDef sum;
  sum.name = "sum";
  sum.fn = [](const Value& args,
              const serde::InvocationEnv&) -> Result<Value> {
    double total = 0;
    for (const auto& item : args.AsList()) total += item.AsNumber();
    return Value(total);
  };
  (void)registry.RegisterFunction(std::move(sum));
}

}  // namespace

int main(int argc, char** argv) {
  const int leaves = argc > 1 ? std::atoi(argv[1]) : 32;

  serde::FunctionRegistry registry;
  RegisterFunctions(registry);

  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = 2;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        factory_config);
  (void)cluster.Start();
  core::Manager& manager = cluster.manager();

  // Invocation mode: a library retains the (trivial) context so every DAG
  // node runs as a FunctionCall instead of a full task.
  auto spec = manager.CreateLibraryFromFunctions("math", {"square", "sum"});
  spec->slots = 8;
  spec->exec_mode = core::ExecMode::kFork;
  spec->resources = core::Resources{16, 32 * 1024, 32 * 1024};
  (void)manager.InstallLibrary(*spec);

  dag::VineletExecutor executor(&manager);
  dag::DagEngine engine(&executor);
  dag::AppCall square_call;
  square_call.library = "math";
  square_call.function = "square";
  dag::AppCall sum_call;
  sum_call.library = "math";
  sum_call.function = "sum";

  // Fan out the squares...
  std::vector<dag::AppFuturePtr> layer;
  for (int i = 1; i <= leaves; ++i)
    layer.push_back(engine.Submit(square_call, {dag::Arg(Value(i))}));

  // ...and reduce pairwise until one node remains.
  while (layer.size() > 1) {
    std::vector<dag::AppFuturePtr> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(engine.Submit(
          sum_call, {dag::Arg(layer[i]), dag::Arg(layer[i + 1])}));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }

  auto result = layer.front()->Wait();
  if (!result.ok()) {
    std::printf("pipeline failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const long long n = leaves;
  const long long expected = n * (n + 1) * (2 * n + 1) / 6;  // sum of squares
  std::printf("sum of squares 1..%d = %.0f (expected %lld)\n", leaves,
              result->AsNumber(), expected);
  std::printf("DAG nodes: %llu submitted, %llu completed; invocations "
              "executed remotely: %llu\n",
              static_cast<unsigned long long>(engine.nodes_submitted()),
              static_cast<unsigned long long>(engine.nodes_completed()),
              static_cast<unsigned long long>(
                  manager.metrics().invocations_completed));
  cluster.Stop();
  return result->AsNumber() == static_cast<double>(expected) ? 0 : 1;
}
