// Table 5: overhead breakdown of LNNI invocations with L2 and L3 context
// reuse (manager and worker on the same machine, no interference).
//
// Three reproductions:
//  (a) calibrated-model breakdown at paper scale (the four phases computed
//      from the cost model, uncontended);
//  (b) the real threaded runtime at laptop scale: phase spans recorded by
//      the telemetry tracer for L2-cold, L2-hot, L3-library and
//      L3-invocation, aggregated into Table 5's columns;
//  (c) the simulator at paper scale: the same span names stamped in virtual
//      time, rendered through the same AggregatePhases code path.
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>

#include "apps/lnni.hpp"
#include "bench/bench_util.hpp"
#include "core/cluster.hpp"
#include "core/manager.hpp"
#include "poncho/analyzer.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace vinelet;
using bench::Section;
using bench::Table;
using serde::Value;
using telemetry::AggregatePhases;
using telemetry::PhaseTotals;
using telemetry::SpanRecord;

std::string Sec(double v) {
  if (v > 0 && v < 0.01) {
    char out[32];
    std::snprintf(out, sizeof(out), "%.2e", v);
    return out;
  }
  return FormatDouble(v, 3);
}

void AddBreakdownRow(Table& table, const std::string& label,
                     const PhaseTotals& totals, bool exec_na = false) {
  table.AddRow({label, Sec(totals.TransferColumn()), Sec(totals.WorkerColumn()),
                Sec(totals.ContextColumn()),
                exec_na ? "N/A" : Sec(totals.ExecColumn())});
}

void PaperScaleModel() {
  const sim::WorkloadCosts costs = sim::LnniCosts(16);
  const double link_Bps = 1.25e9;                 // 10 GbE
  const double weights_bytes = 98.0 * 1024 * 1024;  // ResNet50 parameters
  const double transfer_cold =
      (costs.env_packed_bytes + weights_bytes) / link_Bps;
  const double local_read_s = costs.l2_local_bytes / 550e6;

  Table table({"Phase", "Invoc&Data Transfer", "Worker Overhead",
               "Library/Invoc Overhead", "Exec Time"});
  table.AddRow({"L2 (Cold)  paper", "1.004", "15.435", "0.403", "5.469"});
  table.AddRow({"L2 (Cold)  model", Sec(transfer_cold), Sec(costs.unpack_cpu_s),
                Sec(costs.deserialize_s),
                Sec(local_read_s + costs.context_rebuild_cpu_s +
                    costs.exec_cpu_s)});
  table.AddRow({"L2 (Hot)   paper", "5.22e-4", "1.18e-3", "0.327", "5.046"});
  table.AddRow({"L2 (Hot)   model", Sec(2e-4), Sec(1e-3),
                Sec(costs.deserialize_s),
                Sec(local_read_s + costs.context_rebuild_cpu_s +
                    costs.exec_cpu_s)});
  table.AddRow({"L3 (Library) paper", "0.989", "15.251", "2.729", "N/A"});
  table.AddRow({"L3 (Library) model", Sec(transfer_cold),
                Sec(costs.unpack_cpu_s), Sec(costs.context_setup_cpu_s),
                "N/A"});
  table.AddRow({"L3 (Invoc.) paper", "2.34e-4", "2.75e-4", "5.14e-4",
                "3.079"});
  table.AddRow({"L3 (Invoc.) model", Sec(1e-4), Sec(1e-4),
                Sec(costs.invocation_overhead_s), Sec(costs.exec_cpu_s)});
  table.Print();
  std::printf("Key deltas preserved: ~2 s of exec at L2 is the context "
              "rebuild L3 hoists into its 2.7 s one-time setup; the L3 "
              "per-invocation overhead is orders of magnitude below L2's.\n");
}

/// Aggregates one measurement window: everything except per-file transfer
/// spans (category "file"), whose time is already covered by the task-level
/// "transfer" wait span — counting both would double the transfer column.
PhaseTotals TaskView(const std::vector<SpanRecord>& spans) {
  return AggregatePhases(
      spans, [](const SpanRecord& s) { return s.category != "file"; });
}

/// Partitions a drained span stream into causal traces.  Trace ids are
/// allocated at submit time, so map order == submission order; untraced
/// spans (startup noise, background chatter) fall out naturally.
std::map<std::uint64_t, std::vector<SpanRecord>> GroupByTrace(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<SpanRecord>> traces;
  for (const auto& span : spans) {
    if (span.trace_id != 0) traces[span.trace_id].push_back(span);
  }
  return traces;
}

bool TraceHasPhase(const std::vector<SpanRecord>& spans,
                   std::string_view name) {
  for (const auto& span : spans) {
    if (span.name == name) return true;
  }
  return false;
}

/// Library-deployment window: setup phases come from the library runtime
/// (category "library"); its context transfer is only visible as per-file
/// spans, so the transfer column aggregates those.
PhaseTotals LibraryView(const std::vector<SpanRecord>& spans) {
  PhaseTotals totals = AggregatePhases(
      spans, [](const SpanRecord& s) { return s.category == "library"; });
  const PhaseTotals files = AggregatePhases(
      spans, [](const SpanRecord& s) { return s.category == "file"; });
  totals.transfer_s += files.transfer_s;
  return totals;
}

/// Cross-checks the CriticalPathAnalyzer's per-phase blame against the
/// AggregatePhases sums over the same span set: both are normalized to
/// phase *shares* (blame over its attributed, non-idle seconds; the
/// aggregate over its eight-phase sum) and every lifecycle phase must
/// agree within 5 share-points.  Both sides see the identical filtered
/// vector, so the only source of disagreement is intra-trace span overlap:
/// the analyzer attributes each instant once (latest-started covering
/// span) while the aggregate sums full durations.  Callers pick the filter
/// that makes spans (near-)disjoint within a trace: the threaded runtime
/// drops per-file and admission spans — both are sub-measurements of the
/// window the task-level transfer span already covers — while the
/// simulator keeps its file spans (the env fetch/unpack spans are the only
/// record of that time and overlap nothing).  Returns false (and the bench
/// exits non-zero) on disagreement — the blame report is only useful if it
/// reproduces the established breakdown.
bool CrossCheckBlame(const std::vector<SpanRecord>& spans,
                     bool include_file_spans, const std::string& label,
                     bench::JsonReport& report) {
  std::vector<SpanRecord> traced;
  traced.reserve(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.trace_id == 0) continue;
    if (!include_file_spans &&
        (span.category == "file" || span.category == "admission")) {
      continue;
    }
    traced.push_back(span);
  }
  const telemetry::BlameReport blame =
      telemetry::CriticalPathAnalyzer().Analyze(traced);
  const PhaseTotals agg = AggregatePhases(traced);
  const double agg_total = agg.submit_s + agg.dispatch_s + agg.transfer_s +
                           agg.unpack_s + agg.context_setup_s +
                           agg.deserialize_s + agg.exec_s + agg.result_s;
  const double blame_total =
      blame.total_makespan_s - blame.PhaseSeconds(telemetry::kIdlePhase);
  const std::pair<const char*, double> phases[] = {
      {"submit", agg.submit_s},
      {"dispatch", agg.dispatch_s},
      {"transfer", agg.transfer_s},
      {"unpack", agg.unpack_s},
      {"context-setup", agg.context_setup_s},
      {"deserialize", agg.deserialize_s},
      {"exec", agg.exec_s},
      {"result", agg.result_s}};
  double max_delta = 0.0;
  const char* worst_phase = "";
  for (const auto& [name, agg_s] : phases) {
    const double agg_share = agg_total > 0 ? agg_s / agg_total : 0.0;
    const double blame_share =
        blame_total > 0 ? blame.PhaseSeconds(name) / blame_total : 0.0;
    const double delta = std::abs(agg_share - blame_share);
    if (delta > max_delta) {
      max_delta = delta;
      worst_phase = name;
    }
  }
  const bool ok = max_delta <= 0.05;
  std::printf("  %s: blame vs aggregate over %zu trace(s): max share delta "
              "%.4f (%s) -> %s\n",
              label.c_str(), blame.traces, max_delta, worst_phase,
              ok ? "OK" : "MISMATCH");
  if (!ok) {
    for (const auto& [name, agg_s] : phases) {
      std::printf("    %-14s blame %8.4fs (%.4f)  aggregate %8.4fs (%.4f)\n",
                  name, blame.PhaseSeconds(name),
                  blame_total > 0 ? blame.PhaseSeconds(name) / blame_total
                                  : 0.0,
                  agg_s, agg_total > 0 ? agg_s / agg_total : 0.0);
    }
  }
  report.AddMeasured(label + " blame_share_max_delta", max_delta);
  return ok;
}

bool RealRuntimeMeasured(bench::JsonReport& report) {
  serde::FunctionRegistry registry;
  apps::LnniConfig lnni_config;
  lnni_config.dim = 96;
  lnni_config.layers = 4;
  lnni_config.build_passes = 16;
  (void)apps::RegisterLnniFunctions(registry, lnni_config);

  // One telemetry handle across manager + workers; spans drained per
  // measurement window below.
  telemetry::Telemetry telemetry;
  telemetry.tracer.SetEnabled(true);

  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  manager_config.telemetry = &telemetry;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        core::FactoryConfig{});
  (void)cluster.Start();
  core::Manager& manager = cluster.manager();

  // Real (scaled) environment + real weights, both cached + unpacked.
  poncho::Analyzer analyzer(poncho::PackageCatalog::SyntheticMlCatalog(0.02));
  const Blob weights = apps::MakeLnniWeightsBlob(lnni_config);
  auto env = analyzer.AnalyzeImports({"ml-inference"}).value();
  auto env_decl = manager.DeclareBlob("env", env.tarball,
                                      storage::FileKind::kEnvironment, true,
                                      true, /*unpack=*/true);
  auto weights_decl = manager.DeclareBlob(lnni_config.weights_file, weights,
                                          storage::FileKind::kData, true);
  const Value args = Value::Dict({{"count", Value(16)}, {"seed", Value(1)}});

  Table table({"Phase", "Invoc&Data Transfer", "Worker Overhead",
               "Library/Invoc Overhead", "Exec Time"});

  // L2: two sequential remote tasks — cold then hot.  The breakdown is
  // derived from the causal traces, not drain windows: both tasks run,
  // then the stream is partitioned by trace_id and the cold trace is the
  // one that paid the environment unpack.
  (void)telemetry.tracer.Drain();  // discard startup noise
  bool l2_ok = true;
  for (int i = 0; i < 2 && l2_ok; ++i) {
    auto outcome = manager
                       .SubmitTask("lnni_infer", args,
                                   {env_decl, weights_decl},
                                   core::Resources{2, 4096, 4096})
                       ->Wait();
    if (!outcome.ok()) {
      std::printf("L2 run failed: %s\n", outcome.status().ToString().c_str());
      l2_ok = false;
    }
  }
  std::vector<SpanRecord> all_spans;  // full stream for the blame check
  if (l2_ok) {
    const std::vector<SpanRecord> l2_spans = telemetry.tracer.Drain();
    all_spans.insert(all_spans.end(), l2_spans.begin(), l2_spans.end());
    // Trace ids are allocated at submit, so map order == submission order:
    // the first trace is the cold run (it also paid the env unpack).
    std::size_t index = 0;
    for (const auto& [trace_id, spans] : GroupByTrace(l2_spans)) {
      const char* label = index++ == 0 ? "L2 (Cold)" : "L2 (Hot)";
      const PhaseTotals totals = TaskView(spans);
      AddBreakdownRow(table, label, totals);
      report.AddMeasured(std::string(label) + " exec_s", totals.ExecColumn());
    }
  }

  // L3: library deployment + two invocations, again split by trace: the
  // first call's trace carries the one-time setup (its submit triggered
  // the install), the second is the steady-state invocation cost.
  auto spec = manager.CreateLibraryFromFunctions(
      "lnni", {"lnni_infer"}, "lnni_setup", Value(), nullptr);
  if (spec.ok()) {
    manager.AddLibraryInput(*spec, env_decl);
    manager.AddLibraryInput(*spec, weights_decl);
    (void)manager.InstallLibrary(*spec);
    auto outcome = manager.SubmitCall("lnni", "lnni_infer", args)->Wait();
    auto hot = manager.SubmitCall("lnni", "lnni_infer", args)->Wait();
    if (outcome.ok() && hot.ok()) {
      const std::vector<SpanRecord> l3_spans = telemetry.tracer.Drain();
      all_spans.insert(all_spans.end(), l3_spans.begin(), l3_spans.end());
      const auto traces = GroupByTrace(l3_spans);
      const std::vector<SpanRecord>* steady = nullptr;
      for (const auto& [trace_id, spans] : traces) {
        if (TraceHasPhase(spans, "context-setup")) {
          AddBreakdownRow(table, "L3 (Library)", LibraryView(spans),
                          /*exec_na=*/true);
        } else if (TraceHasPhase(spans, "exec")) {
          steady = &spans;  // highest trace_id wins: the hot second call
        }
      }
      if (steady != nullptr) {
        const PhaseTotals totals =
            AggregatePhases(*steady, [](const SpanRecord& s) {
              return s.category == "invocation" && s.track != "manager";
            });
        AddBreakdownRow(table, "L3 (Invoc.)", totals);
        report.AddMeasured("L3 (Invoc.) exec_s", totals.ExecColumn());
      }
      // Cross-check against the worker-reported wire breakdown: the library
      // runtime now separates function deserialization from context setup,
      // so the manager's last-setup gauges split the old "context" bucket.
      const core::ManagerMetrics metrics = manager.metrics();
      const core::TimingBreakdown& setup = metrics.last_library_setup;
      std::printf("Manager-reported library setup: transfer=%s worker=%s "
                  "deserialize=%s context=%s\n",
                  Sec(setup.transfer_s).c_str(), Sec(setup.worker_s).c_str(),
                  Sec(setup.deserialize_s).c_str(),
                  Sec(setup.context_s).c_str());
      report.AddMeasured("L3 setup deserialize_s", setup.deserialize_s);
      report.AddMeasured("L3 setup context_s", setup.context_s);
    } else {
      std::printf("L3 run failed: %s\n",
                  (outcome.ok() ? hot : outcome).status().ToString().c_str());
    }
  }
  table.Print();
  std::printf("Rows are per-trace aggregates: each invocation's four "
              "columns come from the spans sharing its trace_id, so "
              "concurrent background work can never bleed into a row.\n");
  std::printf("Shape check (wall clock, laptop scale): L3 invocation "
              "overhead columns are orders of magnitude below L2's, and L3 "
              "exec drops by the hoisted rebuild cost.\n");
  const bool blame_ok =
      CrossCheckBlame(all_spans, /*include_file_spans=*/false, "runtime",
                      report);
  cluster.Stop();
  return blame_ok;
}

/// Runs the simulator with tracing on and returns the drained spans —
/// the same eight phase names as the threaded runtime, in virtual time.
std::vector<SpanRecord> SimSpans(core::ReuseLevel level, std::size_t n) {
  telemetry::Telemetry telemetry;
  telemetry.tracer.SetEnabled(true);
  sim::SimConfig config;
  config.level = level;
  config.cluster.num_workers = 1;
  config.seed = 7;
  config.telemetry = &telemetry;
  // The workload keeps a pointer to its costs: they must outlive the run.
  const sim::WorkloadCosts costs = sim::LnniCosts(16);
  sim::VineSim vinesim(config, sim::BuildLnniWorkload(costs, n));
  (void)vinesim.Run();
  return telemetry.tracer.Drain();
}

bool SimulatedBreakdown(bench::JsonReport& report) {
  Table table({"Phase", "Invoc&Data Transfer", "Worker Overhead",
               "Library/Invoc Overhead", "Exec Time"});
  constexpr std::size_t kInvocations = 8;
  bool blame_ok = true;
  for (const auto& [level, label] :
       {std::pair{core::ReuseLevel::kL2, "L2 (sim, 8 invoc.)"},
        std::pair{core::ReuseLevel::kL3, "L3 (sim, 8 invoc.)"}}) {
    const std::vector<SpanRecord> spans = SimSpans(level, kInvocations);
    blame_ok = CrossCheckBlame(spans, /*include_file_spans=*/true, label,
                               report) &&
               blame_ok;
    // The simulator's task- and file-level spans are disjoint (env transfer
    // is per worker, not re-counted per invocation), so aggregate them all.
    const PhaseTotals totals = AggregatePhases(spans);
    AddBreakdownRow(table, label, totals);
    report.AddMeasured(std::string(label) + " exec_s", totals.ExecColumn());

    // Acceptance check: the span stream renders to valid Chrome trace JSON.
    const std::string json = telemetry::ToChromeTrace(spans, "vinelet:sim");
    auto check = telemetry::ValidateChromeTrace(json);
    if (check.ok()) {
      std::printf("  %s: %zu spans -> valid Chrome trace (%zu events, "
                  "%zu tracks)\n",
                  label, spans.size(), check->events, check->tracks);
    } else {
      std::printf("  %s: TRACE INVALID: %s\n", label,
                  check.status().ToString().c_str());
    }
  }
  table.Print();
  std::printf("Same AggregatePhases code path as (b); totals cover %zu "
              "invocations plus the one-time env fetch/unpack.\n",
              kInvocations);
  return blame_ok;
}

}  // namespace

int main() {
  std::printf("Reproduction of Table 5: overhead breakdown of LNNI "
              "invocations with L2 and L3 context reuse\n");
  vinelet::bench::JsonReport report("table5_breakdown");
  report.SetConfig("levels=L2,L3 sim_invocations=8 runtime=lnni");
  Section("(a) Calibrated model at paper scale (uncontended)");
  PaperScaleModel();
  Section("(b) Real threaded runtime, laptop scale (telemetry spans)");
  const bool runtime_ok = RealRuntimeMeasured(report);
  Section("(c) Simulator, virtual-time spans through the same aggregation");
  const bool sim_ok = SimulatedBreakdown(report);
  report.Write();
  if (!runtime_ok || !sim_ok) {
    std::printf("FAIL: blame report disagrees with the phase aggregation\n");
    return 1;
  }
  return 0;
}
