// lnni-levels: the paper's LNNI inference (16 inferences per invocation) at
// the three context-reuse levels, each as a saturating closed-loop phase.
//
//   L1  SubmitTask, environment tarball and weights shipped inline with
//       every task (cache=false): transfer + unpack + model build each time.
//   L2  SubmitTask with the same inputs cached on the workers: staging is
//       free after the first task, the model is still rebuilt every time.
//   L3  SubmitCall against a library that built the model once and
//       retains it.
//
// Set-up packs the environment with poncho, declares it and the weights,
// and broadcasts the cached copies (plus the library's shared input data)
// to every worker.  The library is installed and warmed between the L2 and
// L3 phases: while it holds a worker's cores, stateless tasks cannot run.
#include <cmath>
#include <cstdio>
#include <map>
#include <random>

#include "apps/lnni.hpp"
#include "harness/closed_loop.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"
#include "poncho/analyzer.hpp"
#include "poncho/packer.hpp"

namespace perfbench {

using namespace vinelet;
using serde::Value;

namespace {

constexpr std::int64_t kInferencesPerInvocation = 16;
/// Distinct argument seeds per run (drawn from the workload seed); every
/// result is checked against a local computation for its seed.
constexpr std::size_t kArgPool = 64;
/// Closed-loop windows: 4 task cores in the cluster, 4 library slots.
constexpr std::size_t kTaskWindow = 16;
constexpr std::size_t kCallWindow = 16;
/// Slice length per level (L1 completes ~35 tasks a second, so it is
/// counted over longer slices).
constexpr double kSliceS[3] = {1.0, 0.25, 0.25};
/// Environment scale: ~2.9 MB packed, ~15 MB unpacked (paper: 572 MB/3.1 GB).
constexpr double kEnvScale = 0.005;

apps::LnniConfig Config() {
  apps::LnniConfig config;
  config.dim = 64;
  config.layers = 3;
  config.build_passes = 24;
  return config;
}

struct Context {
  serde::FunctionRegistry registry;
  apps::LnniConfig lnni = Config();
  Blob weights;
  Blob shared_data;  // MakeSharedData()
  std::vector<std::int64_t> seeds;                // the argument pool
  std::map<std::int64_t, double> expected;        // seed -> checksum
};

/// Reference checksums, computed in-process by calling the registered
/// setup and inference functions directly (no runtime involved).
Status ComputeExpected(Context& ctx) {
  auto setup = ctx.registry.FindSetup("lnni_setup");
  auto infer = ctx.registry.FindFunction("lnni_infer");
  if (!setup.ok()) return setup.status();
  if (!infer.ok()) return infer.status();
  const std::map<std::string, Blob> files{{ctx.lnni.weights_file, ctx.weights}};
  serde::InvocationEnv env;
  env.files = &files;
  auto model = setup->fn(Value(), env);
  if (!model.ok()) return model.status();
  env.context = model->get();
  for (std::int64_t seed : ctx.seeds) {
    auto out = infer->fn(
        Value::Dict({{"count", Value(kInferencesPerInvocation)}, {"seed", Value(seed)}}),
        env);
    if (!out.ok()) return out.status();
    ctx.expected[seed] = out->Get("checksum").AsFloat();
  }
  return Status::Ok();
}

struct Setup {
  std::unique_ptr<TcpCluster> cluster;
  double seconds = 0.0, pack_s = 0.0, broadcast_s = 0.0;
  Blob env_tarball;
  storage::FileDecl env_inline, weights_inline, env_cached, weights_cached,
      shared;
};

Result<Setup> SetUp(const Context& ctx, bool traced) {
  const double start = NowS();
  Setup setup;
  ClusterOptions options;
  options.registry = &ctx.registry;
  options.timed_transport = traced;
  setup.cluster = std::make_unique<TcpCluster>(options);
  VINELET_RETURN_IF_ERROR(setup.cluster->Start());
  core::Manager& manager = setup.cluster->manager();

  const double pack_start = NowS();
  poncho::Analyzer analyzer(poncho::PackageCatalog::SyntheticMlCatalog(kEnvScale));
  auto env = analyzer.AnalyzeImports({"ml-inference"});
  if (!env.ok()) return env.status();
  setup.pack_s = NowS() - pack_start;
  setup.env_tarball = env->tarball;

  using storage::FileKind;
  setup.env_inline = manager.DeclareBlob("lnni-env", env->tarball,
                                         FileKind::kEnvironment, false, true, true);
  setup.weights_inline = manager.DeclareBlob(ctx.lnni.weights_file, ctx.weights,
                                             FileKind::kData, false);
  setup.env_cached = manager.DeclareBlob("lnni-env", env->tarball,
                                         FileKind::kEnvironment, true, true, true);
  setup.weights_cached = manager.DeclareBlob(ctx.lnni.weights_file, ctx.weights,
                                             FileKind::kData, true);
  const double broadcast_start = NowS();
  for (const auto* decl : {&setup.env_cached, &setup.weights_cached}) {
    auto outcome = manager.BroadcastFile(*decl)->WaitFor(
        std::chrono::duration<double>(60.0));
    if (!outcome.has_value()) return TimeoutError("broadcast " + decl->name);
    if (!outcome->ok()) return outcome->status();
  }
  double shared_s = 0.0;
  auto shared = DistributeSharedData(manager, "lnni-shared.bin",
                                     ctx.shared_data, &shared_s);
  if (!shared.ok()) return shared.status();
  setup.shared = *shared;
  setup.broadcast_s = NowS() - broadcast_start;
  setup.seconds = NowS() - start;
  return setup;
}

Status InstallLibrary(core::Manager& manager, const Context& ctx,
                      const Setup& setup) {
  auto spec = manager.CreateLibraryFromFunctions("lnni", {"lnni_infer"},
                                                 "lnni_setup", Value());
  if (!spec.ok()) return spec.status();
  manager.AddLibraryInput(*spec, setup.env_cached);
  manager.AddLibraryInput(*spec, setup.weights_cached);
  manager.AddLibraryInput(*spec, setup.shared);
  spec->resources = core::Resources{2, 1024, 1024};
  spec->slots = 2;
  spec->exec_mode = core::ExecMode::kFork;
  VINELET_RETURN_IF_ERROR(manager.InstallLibrary(*spec));
  std::size_t i = 0;
  return WarmLibrary(manager, "lnni", 16, [&] {
    return manager.SubmitCall(
        "lnni", "lnni_infer",
        Value::Dict({{"count", Value(1)},
                     {"seed", Value(ctx.seeds[i++ % ctx.seeds.size()])}}));
  });
}

struct Level {
  const char* name = "";
  ClosedLoopResult run;
  std::uint64_t rebuilt = 0;
  double transfer_s = 0.0, stage_s = 0.0;  // tasks only
  std::vector<double> deserialize_s;       // calls only
};

/// Runs one level; `level` is 1, 2 or 3.
Level RunLevel(core::Manager& manager, const Context& ctx, const Setup& setup,
               int level, double seconds) {
  Level out;
  out.name = level == 1 ? "L1" : level == 2 ? "L2" : "L3";
  std::mutex mu;  // guards the accumulators below (manager thread writes)
  const std::vector<storage::FileDecl> inputs =
      level == 1 ? std::vector<storage::FileDecl>{setup.env_inline, setup.weights_inline}
                 : std::vector<storage::FileDecl>{setup.env_cached, setup.weights_cached};
  auto args = [&](std::size_t i) {
    return Value::Dict({{"count", Value(kInferencesPerInvocation)},
                        {"seed", Value(ctx.seeds[i % ctx.seeds.size()])}});
  };
  out.run = RunClosedLoop(
      manager, level == 3 ? kCallWindow : kTaskWindow, seconds,
      /*keep_latency=*/true,
      [&](std::size_t i) {
        if (level == 3) return manager.SubmitCall("lnni", "lnni_infer", args(i));
        return manager.SubmitTask("lnni_infer", args(i), inputs,
                                  core::Resources{1, 256, 256});
      },
      [&](std::size_t i, const core::Outcome& outcome) {
        const Value& v = outcome.value;
        const bool rebuilt = v.Get("rebuilt").type() == Value::Type::kBool &&
                             v.Get("rebuilt").AsBool();
        const Value& checksum = v.Get("checksum");
        const bool ok = checksum.type() == Value::Type::kFloat &&
                        checksum.AsFloat() ==
                            ctx.expected.at(ctx.seeds[i % ctx.seeds.size()]) &&
                        rebuilt == (level != 3);
        std::lock_guard<std::mutex> lock(mu);
        out.rebuilt += rebuilt ? 1 : 0;
        out.transfer_s += outcome.timing.transfer_s;
        out.stage_s += outcome.timing.worker_s;
        if (level == 3) out.deserialize_s.push_back(outcome.timing.deserialize_s);
        return ok;
      },
      kSliceS[level - 1]);
  return out;
}

double Measure(const Context& ctx, bool traced, double seconds,
               std::vector<double>& setups, Report& report) {
  Setup setup;
  if (!SetUpRepeatedly(traced, setup, setups, report,
                       [&] { return SetUp(ctx, traced); }))
    return 0.0;
  core::Manager& manager = setup.cluster->manager();
  const LayerBaseline base = BeginMeasured(*setup.cluster);

  Level levels[3];
  const double share[3] = {0.4, 0.3, 0.3};
  for (int level = 1; level <= 3; ++level) {
    if (level == 3) {
      if (Status status = InstallLibrary(manager, ctx, setup); !status.ok()) {
        report.Fail("library: " + status.ToString());
        return 0.0;
      }
    }
    Level& l = levels[level - 1];
    l = RunLevel(manager, ctx, setup, level, seconds * share[level - 1]);
    report.Phase(std::string(l.name) + (traced ? "/traced" : ""), l.run.attempted,
                 l.run.succeeded, l.run.failed, l.run.mismatches);
    const Summary latency = Summarize(l.run.latency_s, l.run.failed);
    std::printf("lnni-levels%s %s: %.2f inv/s over %.2f s (best decile of %g s "
                "slices %.2f/s); CPU per inv %.1f us, best decile %.1f us; "
                "latency %s\n",
                traced ? " (traced)" : "", l.name, l.run.per_s,
                seconds * share[level - 1], l.run.slice_s,
                BestDecile(l.run.SliceRates(), /*lower_is_better=*/false),
                l.run.CpuSPerOp() * 1e6,
                BestDecile(l.run.SliceCpuSPerOp(), /*lower_is_better=*/true) * 1e6,
                latency.Format("ms", 1e3).c_str());
  }
  const double geomean = std::cbrt(levels[0].run.per_s * levels[1].run.per_s *
                                   levels[2].run.per_s);
  if (!traced) {
    const char* names[3] = {"l1_inv_per_s", "l2_inv_per_s", "l3_inv_per_s"};
    double best = 1.0, cpu = 1.0;
    for (int i = 0; i < 3; ++i) {
      report.Set(names[i], levels[i].run.per_s, "1/s", levels[i].run.succeeded);
      best *= BestDecile(levels[i].run.SliceRates(), /*lower_is_better=*/false);
      cpu *= BestDecile(levels[i].run.SliceCpuSPerOp(), /*lower_is_better=*/true);
    }
    report.Set("inv_per_s", std::cbrt(best), "1/s", 3);
    report.Set("cpu_us_per_inv", std::cbrt(cpu) * 1e6, "us", 3);
    const Summary l3 = Summarize(levels[2].run.latency_s, levels[2].run.failed);
    const std::vector<double> l3_slices = levels[2].run.SliceLatencyMedians();
    report.Set("lat_p50_ms", BestDecile(l3_slices, /*lower_is_better=*/true) * 1e3,
               "ms", l3.samples);
    report.Set("lat_p99_ms", l3.p99 * 1e3, "ms", l3.samples);
    report.Set("lat_p90_ms", l3.p90 * 1e3, "ms", l3.samples);
    return geomean;
  }

  LayerInputs in;
  for (const Level& l : levels) {
    in.ops += l.run.succeeded;
    in.submit_s.insert(in.submit_s.end(), l.run.submit_s.begin(), l.run.submit_s.end());
  }
  // Retention failures of the library: L3 calls that had to rebuild.
  in.rebuilt = levels[2].rebuilt;
  in.rebuilt_of = levels[2].run.succeeded;
  in.tasks = levels[0].run.succeeded + levels[1].run.succeeded;
  in.task_transfer_s = levels[0].transfer_s + levels[1].transfer_s;
  in.task_stage_s = levels[0].stage_s + levels[1].stage_s;
  in.deserialize_s = levels[2].deserialize_s;
  in.pack_s = setup.pack_s;
  in.broadcast_s = setup.broadcast_s;
  {
    const Blob args = Value::Dict({{"count", Value(kInferencesPerInvocation)},
                                   {"seed", Value(ctx.seeds[0])}})
                          .ToBlob();
    const Blob result = Value::Dict({{"classified", Value(1)},
                                     {"checksum", Value(ctx.expected.at(ctx.seeds[0]))},
                                     {"rebuilt", Value(true)}})
                            .ToBlob();
    core::ExecuteTaskMsg task;
    task.task.id = 1;
    task.task.function_name = "lnni_infer";
    task.task.args = args;
    task.task.inline_files = {{setup.env_inline, setup.env_tarball},
                              {setup.weights_inline, ctx.weights}};
    core::TaskDoneMsg task_done;
    task_done.id = 1;
    task_done.ok = true;
    task_done.result = result;
    core::RunInvocationMsg call;
    call.id = 1;
    call.function_name = "lnni_infer";
    call.args = args;
    core::InvocationDoneMsg call_done;
    call_done.id = 1;
    call_done.ok = true;
    call_done.result = result;
    in.replay = {task, task_done, call, call_done};
  }
  ReportLayers(*setup.cluster, base, in, report);
  // Inline (L1) unpacks do not register in worker.unpacks, so the unpack
  // cost of this environment is replayed here, outside the runtime.
  {
    std::vector<double> unpack_s;
    for (int i = 0; i < 5; ++i) {
      const double t0 = NowS();
      (void)poncho::Packer::Unpack(setup.env_tarball);
      unpack_s.push_back(NowS() - t0);
    }
    report.Set("poncho.unpack_ms_p50", Median(unpack_s) * 1e3, "ms", unpack_s.size());
  }
  return geomean;
}

}  // namespace

void RunLnniLevels(const RunConfig& config, Report& report) {
  Context ctx;
  if (Status status = apps::RegisterLnniFunctions(ctx.registry, ctx.lnni);
      !status.ok()) {
    report.Fail("register: " + status.ToString());
    return;
  }
  ctx.weights = apps::MakeLnniWeightsBlob(ctx.lnni);
  ctx.shared_data = MakeSharedData();
  std::mt19937_64 rng(config.seed);
  for (std::size_t i = 0; i < kArgPool; ++i)
    ctx.seeds.push_back(static_cast<std::int64_t>(rng() >> 33));
  if (Status status = ComputeExpected(ctx); !status.ok()) {
    report.Fail("reference: " + status.ToString());
    return;
  }
  RunSections(config, report,
              [&](bool traced, double seconds, std::vector<double>& setups) {
                return Measure(ctx, traced, seconds, setups, report);
              });
}

}  // namespace perfbench
