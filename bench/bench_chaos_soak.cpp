// Chaos soak harness: fixed-seed fault schedules against both backends.
//
// For every seed the same FaultPlan drives (a) the real threaded runtime —
// a chunked broadcast, mixed task + library-call waves and an eviction
// drain, all under duplicate/delayed frames, injected worker-side failures,
// stragglers and abrupt worker kills — and (b) the DES backend, which
// replays the plan's worker-side faults in virtual time (twice, to prove
// bit-identical replay).  After each runtime soak the harness asserts the
// end-state invariants through Manager::CheckQuiescent(): every future
// resolved exactly once, every scheduler structure drained, gauges equal to
// their true values, and every retained blob still hash-verifies.
//
// Drop/corrupt probabilities stay 0 in soak plans: a dropped control frame
// below the manager's probe layer is *designed* to surface as a hang, and
// tests/chaos_test.cpp covers those paths with targeted cases instead.
//
// Usage: bench_chaos_soak [--smoke] [--seeds N]
//   --smoke    3 seeds, smaller waves (the CI chaos-smoke configuration)
//   --seeds N  run seeds 1..N (default 8)
// Exit status is non-zero when any seed fails an invariant — the CI gate.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/manager.hpp"
#include "hash/content_id.hpp"
#include "net/fault.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace {

using namespace vinelet;
using bench::Section;
using bench::Table;
using serde::Value;

/// Minimal retained context for the soak library.
class NumberContext final : public serde::FunctionContext {
 public:
  explicit NumberContext(std::int64_t number) : number_(number) {}
  std::int64_t number() const noexcept { return number_; }
  std::uint64_t MemoryBytes() const override { return sizeof(*this); }

 private:
  std::int64_t number_;
};

void RegisterSoakFunctions(serde::FunctionRegistry& registry) {
  serde::FunctionDef sleepy;
  sleepy.name = "sleepy";
  sleepy.fn = [](const Value& args,
                 const serde::InvocationEnv&) -> Result<Value> {
    auto ms = args.GetInt("ms");
    if (!ms.ok()) return ms.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
    return Value(true);
  };
  (void)registry.RegisterFunction(sleepy);

  serde::ContextSetupDef setup;
  setup.name = "number_setup";
  setup.fn = [](const Value& args,
                const serde::InvocationEnv&) -> Result<serde::ContextHandle> {
    return serde::ContextHandle(
        std::make_shared<NumberContext>(args.Get("number").AsInt()));
  };
  (void)registry.RegisterSetup(setup);

  serde::FunctionDef use_context;
  use_context.name = "use_context";
  use_context.setup_name = "number_setup";
  use_context.fn = [](const Value& args,
                      const serde::InvocationEnv& env) -> Result<Value> {
    auto x = args.GetInt("x");
    if (!x.ok()) return x.status();
    const auto* ctx = dynamic_cast<const NumberContext*>(env.context);
    return Value(*x + (ctx != nullptr ? ctx->number() : 0));
  };
  (void)registry.RegisterFunction(use_context);
}

net::FaultPlan SoakPlan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.link.dup_p = 0.02;
  plan.link.delay_p = 0.05;
  plan.link.delay_min_s = 0.0005;
  plan.link.delay_max_s = 0.005;
  plan.worker.setup_failure_p = 0.05;
  plan.worker.invocation_failure_p = 0.02;
  plan.worker.task_failure_p = 0.02;
  plan.worker.straggler_p = 0.05;
  plan.worker.straggler_delay_s = 0.02;
  return plan;
}

struct RuntimeOutcome {
  std::size_t futures = 0;
  std::size_t succeeded = 0;
  bool resolved_once = true;   // every future resolved exactly once
  bool quiescent = false;      // CheckQuiescent settled clean
  bool stores_verified = true; // every cached blob hash-verifies
  std::uint64_t injected = 0;  // total faults the plan fired
  /// Affinity audit at quiescence: (library, worker) pairs left in the
  /// index and the warm-instance gauge (pairs <= instances when one worker
  /// hosts several instances of a library).  CheckQuiescent recomputes the
  /// table from the instance map, so reaching quiescent already proves no
  /// stale entry survived the kills; the counts go on the record here.
  std::size_t affinity_entries = 0;
  std::uint64_t affinity_warm = 0;
  std::string first_violation;
  double wall_s = 0;

  bool Pass() const {
    return resolved_once && quiescent && stores_verified && injected > 0;
  }
};

RuntimeOutcome RunRuntimeSoak(std::uint64_t seed, bool smoke) {
  const auto t0 = std::chrono::steady_clock::now();
  RuntimeOutcome out;

  serde::FunctionRegistry registry;
  RegisterSoakFunctions(registry);
  auto network = std::make_shared<net::Network>();
  auto fault = std::make_shared<net::FaultInjector>(SoakPlan(seed));
  network->SetFaultInjector(fault);

  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  manager_config.max_attempts = 10;
  manager_config.broadcast_probe_s = 0.1;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = 3;
  factory_config.worker_resources = core::Resources{4, 8 * 1024, 8 * 1024};
  factory_config.fault = fault;
  core::Cluster cluster(network, manager_config, factory_config);
  core::Manager& manager = cluster.manager();
  core::Factory& factory = cluster.factory();
  fault->SetFlightRecorder(&manager.telemetry().flight);
  if (!cluster.Start().ok()) {
    fault->SetFlightRecorder(nullptr);
    return out;
  }

  std::vector<core::FuturePtr> futures;

  // Phase 1: worker churn during an active chunked broadcast.
  std::string text(smoke ? (256 << 10) : (1 << 20), '\0');
  for (std::size_t i = 0; i < text.size(); ++i)
    text[i] = static_cast<char>('a' + (i * 31 + seed) % 23);
  const storage::FileDecl decl =
      manager.DeclareBlob("model", Blob::FromString(std::move(text)),
                          storage::FileKind::kData, true);
  futures.push_back(
      manager.BroadcastFile(decl, /*chunk_bytes=*/32 * 1024, /*fanout_cap=*/2));
  (void)factory.KillWorker(factory.WorkerIds()[0]);
  (void)factory.SpawnWorker();

  // Phase 2: mixed task + invocation waves with one kill per wave.
  auto spec = manager.CreateLibraryFromFunctions(
      "numbers", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(100)}}));
  if (spec.ok()) {
    spec->resources = core::Resources{2, 1024, 1024};
    spec->slots = 2;
    spec->exec_mode = core::ExecMode::kFork;
    (void)manager.InstallLibrary(*spec);
  }
  const int waves = smoke ? 2 : 3;
  const int per_wave = smoke ? 4 : 8;
  for (int wave = 0; wave < waves; ++wave) {
    for (int i = 0; i < per_wave; ++i) {
      futures.push_back(manager.SubmitTask("sleepy",
                                           Value::Dict({{"ms", Value(10)}}),
                                           {}, core::Resources{1, 64, 64}));
      futures.push_back(manager.SubmitCall("numbers", "use_context",
                                           Value::Dict({{"x", Value(i)}})));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    const auto ids = factory.WorkerIds();
    if (!ids.empty()) {
      (void)factory.KillWorker(
          ids[(seed + static_cast<std::uint64_t>(wave)) % ids.size()]);
      (void)factory.SpawnWorker();
    }
  }

  // Phase 3: an eviction drain racing one more kill.
  auto spec_b = manager.CreateLibraryFromFunctions(
      "other", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(200)}}));
  if (spec_b.ok()) {
    spec_b->resources = core::Resources{2, 1024, 1024};
    spec_b->slots = 2;
    spec_b->exec_mode = core::ExecMode::kFork;
    (void)manager.InstallLibrary(*spec_b);
  }
  for (int i = 0; i < per_wave; ++i) {
    futures.push_back(manager.SubmitCall("other", "use_context",
                                         Value::Dict({{"x", Value(i)}})));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    const auto ids = factory.WorkerIds();
    if (!ids.empty()) {
      (void)factory.KillWorker(ids[seed % ids.size()]);
      (void)factory.SpawnWorker();
    }
  }

  const bool drained = manager.WaitAll(180.0).ok();
  out.futures = futures.size();
  for (const auto& future : futures) {
    if (!future->Ready() || future->resolutions() != 1) {
      out.resolved_once = false;
      continue;
    }
    if (future->Wait().ok()) ++out.succeeded;
  }
  if (!drained) out.resolved_once = false;

  // Poll the invariant audit until the cluster settles.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (true) {
    auto report = manager.CheckQuiescent(5.0);
    if (report.ok()) {
      if (report->quiescent) {
        out.quiescent = true;
        out.affinity_entries = report->affinity_entries;
        out.affinity_warm = report->affinity_warm_gauge;
        break;
      }
      out.first_violation =
          report->violations.empty() ? "" : report->violations.front();
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Every blob every worker retained must still match its content hash.
  for (core::WorkerId id : factory.WorkerIds()) {
    core::Worker* worker = factory.GetWorker(id);
    if (worker == nullptr) continue;
    for (const auto& entry : worker->store().List()) {
      auto blob = worker->store().Get(entry.id);
      if (!blob.ok() || hash::ContentId::Of(*blob) != entry.id)
        out.stores_verified = false;
    }
  }

  out.injected = fault->stats().TotalInjected();
  fault->SetFlightRecorder(nullptr);
  cluster.Stop();
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  return out;
}

struct SimOutcome {
  double makespan = 0;
  bool deterministic = false;
  bool completed = false;
  std::uint64_t injected = 0;
  std::uint64_t deaths = 0;
  // Affinity leg: a skewed multi-library mix through the context-affinity
  // scheduler under the same worker-side plan, kills landing mid-run.
  double affinity_makespan = 0;
  std::uint64_t affinity_hits = 0;
  std::uint64_t affinity_steals = 0;
  std::uint64_t affinity_evicts = 0;
  bool affinity_deterministic = false;
  bool affinity_completed = false;

  bool Pass() const {
    return deterministic && completed && affinity_deterministic &&
           affinity_completed;
  }
};

SimOutcome RunSimSoak(std::uint64_t seed, bool smoke) {
  SimOutcome out;
  sim::SimConfig config;
  config.level = core::ReuseLevel::kL3;
  config.cluster.num_workers = 6;
  config.seed = 42;
  // Same plan shape as the runtime soak; link faults have no fluid-model
  // analogue, and the kill schedule replays at virtual-time stamps.
  config.fault = SoakPlan(seed);
  config.fault.kills.push_back({40.0, (seed % 6) + 1});
  config.fault.kills.push_back({60.0, (seed % 6) + 4});

  const std::size_t invocations = smoke ? 600 : 2000;
  const sim::WorkloadCosts costs = sim::LnniCosts(16);
  const sim::SimResult a =
      sim::VineSim(config, sim::BuildLnniWorkload(costs, invocations)).Run();
  const sim::SimResult b =
      sim::VineSim(config, sim::BuildLnniWorkload(costs, invocations)).Run();

  out.makespan = a.makespan;
  out.completed = a.invocations_completed == invocations &&
                  b.invocations_completed == invocations;
  out.deterministic =
      a.makespan == b.makespan && a.run_times == b.run_times &&
      a.injected_kills == b.injected_kills &&
      a.injected_setup_failures == b.injected_setup_failures &&
      a.injected_invocation_failures == b.injected_invocation_failures &&
      a.injected_stragglers == b.injected_stragglers;
  out.injected = a.injected_kills + a.injected_setup_failures +
                 a.injected_invocation_failures + a.injected_task_failures +
                 a.injected_stragglers;
  out.deaths = a.worker_deaths;

  // Affinity leg: the Zipf mix exercises the per-library queues, the
  // affinity index, threshold-gated stealing and the autoscaler — the kill
  // stamps land while warm instances still hold entries, so replay also
  // proves the index mutations themselves are deterministic.  Calls arrive
  // open-loop (arrivals span 40 s in --smoke, 120 s in full, both past the
  // 18 s kill), so later calls can find their library warm and the hit
  // count the replay compares is not 0.
  sim::SimConfig affinity_config;
  affinity_config.level = core::ReuseLevel::kL3;
  affinity_config.cluster.num_workers = 6;
  affinity_config.seed = 42;
  affinity_config.fault = SoakPlan(seed);
  affinity_config.fault.kills.push_back({10.0, (seed % 6) + 1});
  affinity_config.fault.kills.push_back({18.0, (seed % 6) + 4});

  const std::size_t zipf_invocations = smoke ? 400 : 1200;
  auto zipf = [&] {
    Rng rng(seed);
    return sim::BuildZipfWorkload(costs, zipf_invocations, /*num_libraries=*/12,
                                  /*s=*/1.1, /*exec_sigma=*/0.2,
                                  /*arrival_rate=*/10.0, rng);
  };
  const sim::SimResult c = sim::VineSim(affinity_config, zipf()).Run();
  const sim::SimResult d = sim::VineSim(affinity_config, zipf()).Run();

  out.affinity_makespan = c.makespan;
  out.affinity_hits = c.affinity_hits;
  out.affinity_steals = c.steals;
  out.affinity_evicts = c.autoscale_evicts;
  out.affinity_completed = c.invocations_completed == zipf_invocations &&
                           d.invocations_completed == zipf_invocations;
  out.affinity_deterministic =
      c.makespan == d.makespan && c.run_times == d.run_times &&
      c.affinity_hits == d.affinity_hits &&
      c.affinity_misses == d.affinity_misses && c.steals == d.steals &&
      c.autoscale_deploys == d.autoscale_deploys &&
      c.autoscale_evicts == d.autoscale_evicts &&
      c.injected_kills == d.injected_kills &&
      c.worker_deaths == d.worker_deaths;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::uint64_t seeds = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      seeds = 3;
    } else if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    }
  }

  std::printf("Chaos soak: %llu seed(s), %s configuration\n",
              static_cast<unsigned long long>(seeds),
              smoke ? "smoke" : "full");
  bench::JsonReport report("chaos_soak");
  int failures = 0;

  Section("Real runtime: churn + injected faults, invariants via "
          "CheckQuiescent");
  Table runtime_table({"Seed", "Futures", "Succeeded", "Injected", "Once",
                       "Quiescent", "Affinity", "Stores", "Wall"});
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const RuntimeOutcome out = RunRuntimeSoak(seed, smoke);
    runtime_table.AddRow(
        {std::to_string(seed), std::to_string(out.futures),
         std::to_string(out.succeeded), std::to_string(out.injected),
         out.resolved_once ? "yes" : "NO", out.quiescent ? "yes" : "NO",
         std::to_string(out.affinity_entries) + "/" +
             std::to_string(out.affinity_warm),
         out.stores_verified ? "ok" : "CORRUPT",
         FormatDouble(out.wall_s, 2) + " s"});
    report.AddMeasured("runtime seed " + std::to_string(seed) + " pass",
                       out.Pass() ? 1.0 : 0.0);
    report.AddMeasured("runtime seed " + std::to_string(seed) + " injected",
                       static_cast<double>(out.injected));
    if (!out.Pass()) {
      ++failures;
      std::printf("  seed %llu FAILED%s%s\n",
                  static_cast<unsigned long long>(seed),
                  out.first_violation.empty() ? "" : ": ",
                  out.first_violation.c_str());
    }
  }
  runtime_table.Print();

  Section("DES mirror: same plan, virtual time, bit-identical replay "
          "(LNNI batch + Zipf affinity legs)");
  Table sim_table({"Seed", "Makespan", "Injected", "Deaths", "Deterministic",
                   "Complete", "Zipf makespan", "Hits", "Steals", "Evicts",
                   "Zipf det."});
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const SimOutcome out = RunSimSoak(seed, smoke);
    sim_table.AddRow({std::to_string(seed), FormatDouble(out.makespan, 1),
                      std::to_string(out.injected), std::to_string(out.deaths),
                      out.deterministic ? "yes" : "NO",
                      out.completed ? "yes" : "NO",
                      FormatDouble(out.affinity_makespan, 1),
                      std::to_string(out.affinity_hits),
                      std::to_string(out.affinity_steals),
                      std::to_string(out.affinity_evicts),
                      out.affinity_deterministic ? "yes" : "NO"});
    report.AddMeasured("sim seed " + std::to_string(seed) + " pass",
                       out.Pass() ? 1.0 : 0.0);
    if (!out.Pass()) ++failures;
  }
  sim_table.Print();

  report.Write();
  if (failures > 0) {
    std::printf("\nCHAOS SOAK FAILED: %d seed(s) violated invariants\n",
                failures);
    return 1;
  }
  std::printf("\nAll %llu seed(s) drained clean in both backends.\n",
              static_cast<unsigned long long>(seeds));
  return 0;
}
