// Table 2: overhead of executing 1,000 simple functions under three modes —
// local invocation, remote task (context reloaded every execution), remote
// invocation (context retained by a library).
//
// Two reproductions are printed:
//  (a) the real threaded runtime at laptop scale (real wall-clock: the same
//      three modes, small payloads, one worker);
//  (b) the calibrated simulator at paper scale (virtual time, Table 2's
//      measured per-invocation constants).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "common/clock.hpp"
#include "core/cluster.hpp"
#include "core/manager.hpp"
#include "poncho/analyzer.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace vinelet {
namespace {

using bench::Section;
using bench::Table;
using serde::InvocationEnv;
using serde::Value;

constexpr int kInvocations = 1000;

void RegisterAddFunction(serde::FunctionRegistry& registry) {
  serde::FunctionDef add;
  add.name = "tiny_add";
  add.imports = {"python"};
  add.fn = [](const Value& args, const InvocationEnv&) -> Result<Value> {
    return Value(args.Get("a").AsInt() + args.Get("b").AsInt());
  };
  (void)registry.RegisterFunction(add);
  serde::ContextSetupDef setup;
  setup.name = "tiny_setup";
  setup.fn = [](const Value&, const InvocationEnv&)
      -> Result<serde::ContextHandle> { return serde::ContextHandle(); };
  (void)registry.RegisterSetup(setup);
}

double RunLocal(serde::FunctionRegistry& registry) {
  WallClock clock;
  auto def = registry.FindFunction("tiny_add").value();
  InvocationEnv env;
  Stopwatch watch(clock);
  std::int64_t sink = 0;
  for (int i = 0; i < kInvocations; ++i) {
    auto result =
        def.fn(Value::Dict({{"a", Value(i)}, {"b", Value(1)}}), env);
    sink += result->AsInt();
  }
  std::printf("  (local checksum: %lld)\n", static_cast<long long>(sink));
  return watch.Elapsed();
}

struct RemoteResult {
  double total_s = 0;
  double startup_s = 0;
  double per_invocation_s = 0;
  std::uint64_t completed = 0;   // manager counter delta over the timed loop
  double mean_roundtrip_s = 0;   // roundtrip-histogram delta / completed
};

/// Reads (count, sum) of a roundtrip histogram so modes can difference
/// their own window out of the shared registry.
std::pair<std::uint64_t, double> HistogramTotals(
    telemetry::Telemetry& telemetry, const std::string& name) {
  const auto snapshot = telemetry.metrics.Snapshot();
  const auto* h = snapshot.HistogramFor(name);
  return h == nullptr ? std::pair<std::uint64_t, double>{0, 0.0}
                      : std::pair<std::uint64_t, double>{h->count, h->sum};
}

/// Remote task mode: every execution ships and reloads context (a small
/// poncho environment tarball rides inline with every task).
RemoteResult RunRemoteTasks(serde::FunctionRegistry& registry,
                            telemetry::Telemetry& telemetry) {
  core::ManagerConfig config;
  config.registry = &registry;
  config.telemetry = &telemetry;
  core::Cluster cluster(std::make_shared<net::Network>(), config,
                        core::FactoryConfig{});
  (void)cluster.Start();
  core::Manager& manager = cluster.manager();

  WallClock clock;
  Stopwatch startup(clock);
  // A small environment that every L1 task re-ships and re-unpacks.
  poncho::Analyzer analyzer(poncho::PackageCatalog::SyntheticMlCatalog(1e-4));
  auto env = analyzer.AnalyzeImports({"python"}).value();
  storage::FileDecl env_decl;
  {
    // Uncached (inline) environment: the L1 behaviour.
    env_decl = manager.DeclareBlob("env", env.tarball,
                                   storage::FileKind::kEnvironment,
                                   /*cache=*/false, true, /*unpack=*/true);
  }
  RemoteResult result;
  result.startup_s = startup.Elapsed();

  const auto [count_before, sum_before] =
      HistogramTotals(telemetry, "manager.task_roundtrip_s");
  Stopwatch watch(clock);
  std::vector<core::FuturePtr> futures;
  futures.reserve(kInvocations);
  for (int i = 0; i < kInvocations; ++i) {
    futures.push_back(manager.SubmitTask(
        "tiny_add", Value::Dict({{"a", Value(i)}, {"b", Value(1)}}),
        {env_decl}, core::Resources{1, 64, 64}));
  }
  (void)manager.WaitAll(600.0);
  result.total_s = watch.Elapsed() + result.startup_s;
  result.per_invocation_s = watch.Elapsed() / kInvocations;
  const auto [count_after, sum_after] =
      HistogramTotals(telemetry, "manager.task_roundtrip_s");
  result.completed = count_after - count_before;
  if (result.completed > 0)
    result.mean_roundtrip_s =
        (sum_after - sum_before) / static_cast<double>(result.completed);
  cluster.Stop();
  return result;
}

/// Remote invocation mode: context set up once in a library, invocations
/// carry only arguments.
RemoteResult RunRemoteInvocations(serde::FunctionRegistry& registry,
                                  telemetry::Telemetry& telemetry) {
  core::ManagerConfig config;
  config.registry = &registry;
  config.telemetry = &telemetry;
  core::Cluster cluster(std::make_shared<net::Network>(), config,
                        core::FactoryConfig{});
  (void)cluster.Start();
  core::Manager& manager = cluster.manager();

  WallClock clock;
  Stopwatch startup(clock);
  poncho::Analyzer analyzer(poncho::PackageCatalog::SyntheticMlCatalog(1e-4));
  auto spec = manager.CreateLibraryFromFunctions("tiny", {"tiny_add"},
                                                 "tiny_setup", Value(),
                                                 &analyzer);
  (void)manager.InstallLibrary(*spec);
  // First call forces library deployment; include it in startup.
  (void)manager.SubmitCall("tiny", "tiny_add",
                           Value::Dict({{"a", Value(0)}, {"b", Value(0)}}))
      ->Wait();
  RemoteResult result;
  result.startup_s = startup.Elapsed();

  const auto [count_before, sum_before] =
      HistogramTotals(telemetry, "manager.invocation_roundtrip_s");
  Stopwatch watch(clock);
  for (int i = 0; i < kInvocations; ++i) {
    manager.SubmitCall("tiny", "tiny_add",
                       Value::Dict({{"a", Value(i)}, {"b", Value(1)}}));
  }
  (void)manager.WaitAll(600.0);
  result.total_s = watch.Elapsed() + result.startup_s;
  result.per_invocation_s = watch.Elapsed() / kInvocations;
  const auto [count_after, sum_after] =
      HistogramTotals(telemetry, "manager.invocation_roundtrip_s");
  result.completed = count_after - count_before;
  if (result.completed > 0)
    result.mean_roundtrip_s =
        (sum_after - sum_before) / static_cast<double>(result.completed);
  cluster.Stop();
  return result;
}

/// Paper-scale reproduction on the calibrated simulator.  Returns
/// {total, per_invocation} with the one-time worker/context setup (the
/// paper's separate "Overhead per Worker" column, ~20 s) factored out by
/// differencing against a single-invocation run.
std::pair<double, double> RunSim(core::ReuseLevel level,
                                 const sim::WorkloadCosts& costs,
                                 telemetry::Telemetry* telemetry) {
  auto run = [&](std::size_t n) {
    sim::SimConfig config;
    config.level = level;
    config.cluster.num_workers = 1;
    config.seed = 7;
    config.telemetry = telemetry;
    sim::VineSim vinesim(config, sim::BuildLnniWorkload(costs, n));
    return vinesim.Run().makespan;
  };
  const double total = run(kInvocations);
  const double startup = run(1);
  return {total, (total - startup) / (kInvocations - 1)};
}

}  // namespace
}  // namespace vinelet

int main() {
  using namespace vinelet;
  std::printf("Reproduction of Table 2: overhead of executing 1,000 simple "
              "functions\n");

  serde::FunctionRegistry registry;
  RegisterAddFunction(registry);

  // One telemetry handle across the whole bench: the runtime modes share
  // its metrics registry, the simulator shares its tracer; VINELET_TRACE=1
  // exports BENCH_table2_overhead.trace.json / .metrics.json on exit.
  bench::TraceSession session("table2_overhead");
  bench::JsonReport report("table2_overhead");

  Section("(a) Real threaded runtime, laptop scale (wall clock)");
  const double local_s = RunLocal(registry);
  const RemoteResult task = RunRemoteTasks(registry, *session.telemetry());
  const RemoteResult invocation =
      RunRemoteInvocations(registry, *session.telemetry());
  {
    bench::Table table({"Mode", "Total (s)", "Startup (s)", "Per-invoc (s)",
                        "Completed", "Mean roundtrip (s)"});
    table.AddRow({"Local Invocation", FormatDouble(local_s, 6), "0",
                  FormatDouble(local_s / kInvocations, 9),
                  std::to_string(kInvocations), "-"});
    table.AddRow({"Remote Task", FormatDouble(task.total_s, 3),
                  FormatDouble(task.startup_s, 3),
                  FormatDouble(task.per_invocation_s, 6),
                  std::to_string(task.completed),
                  FormatDouble(task.mean_roundtrip_s, 6)});
    table.AddRow({"Remote Invocation", FormatDouble(invocation.total_s, 3),
                  FormatDouble(invocation.startup_s, 3),
                  FormatDouble(invocation.per_invocation_s, 6),
                  std::to_string(invocation.completed),
                  FormatDouble(invocation.mean_roundtrip_s, 6)});
    table.Print();
    std::printf("Completed and roundtrip columns come from the manager's "
                "telemetry counters/histograms; roundtrip includes queue "
                "wait behind the single worker.\n");
    std::printf("Shape check: remote-invocation per-invocation overhead is "
                "%.1fx lower than remote-task.\n",
                task.per_invocation_s / invocation.per_invocation_s);
    report.AddMeasured("local_per_invocation_s", local_s / kInvocations);
    report.Add("remote_task_per_invocation_s", 0.19, task.per_invocation_s);
    report.Add("remote_invocation_per_invocation_s", 0.00252,
               invocation.per_invocation_s);
    report.AddMeasured("remote_task_mean_roundtrip_s", task.mean_roundtrip_s);
    report.AddMeasured("remote_invocation_mean_roundtrip_s",
                       invocation.mean_roundtrip_s);
  }

  Section("(b) Calibrated simulator, paper scale (virtual time)");
  const sim::WorkloadCosts costs = sim::TrivialFunctionCosts();
  const auto [task_total, task_per] =
      RunSim(core::ReuseLevel::kL1, costs, session.telemetry());
  const auto [invoc_total, invoc_per] =
      RunSim(core::ReuseLevel::kL3, costs, session.telemetry());
  {
    bench::Table table({"Mode", "Paper total (s)", "Sim total (s)",
                        "Paper per-invoc (s)", "Sim per-invoc (s)"});
    table.AddRow({"Local Invocation", "8.89e-5", FormatDouble(local_s, 5),
                  "8.9e-8", FormatDouble(local_s / kInvocations, 9)});
    table.AddRow({"Remote Task", "211.06", FormatDouble(task_total, 2),
                  "0.19", FormatDouble(task_per, 4)});
    table.AddRow({"Remote Invocation", "22.46", FormatDouble(invoc_total, 2),
                  "0.00252", FormatDouble(invoc_per, 5)});
    table.Print();
    report.Add("sim_remote_task_total_s", 211.06, task_total);
    report.Add("sim_remote_invocation_total_s", 22.46, invoc_total);
  }
  report.Write();
  return 0;
}
