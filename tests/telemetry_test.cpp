// Unit and integration tests for the telemetry layer: the sharded metrics
// registry under concurrency, span tracing + phase aggregation, the Chrome
// trace exporter/validator round trip, and the sim-vs-runtime span-taxonomy
// contract for an L3 scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "poncho/analyzer.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "telemetry/telemetry.hpp"

namespace vinelet::telemetry {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterConcurrentIncrementsNoneLost) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsTest, HistogramConcurrentObservationsAllCounted) {
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i)
        histogram.Observe(1e-4 * (t + 1));
    });
  }
  for (auto& t : threads) t.join();
  const HistogramSnapshot snapshot = histogram.Snapshot();
  EXPECT_EQ(snapshot.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += kPerThread * 1e-4 * (t + 1);
  EXPECT_NEAR(snapshot.sum, expected_sum, expected_sum * 1e-9);
}

TEST(MetricsTest, SnapshotConsistentWhileWritersRun) {
  // The histogram's count is derived from its bucket sums, so any snapshot
  // taken mid-stream is internally consistent: cumulative bucket counts are
  // non-decreasing and end at `count`.
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test.live");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&histogram, &stop] {
      double v = 1e-6;
      while (!stop.load(std::memory_order_relaxed)) {
        histogram.Observe(v);
        v = v > 1.0 ? 1e-6 : v * 1.7;
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const HistogramSnapshot snapshot = histogram.Snapshot();
    std::uint64_t previous = 0;
    for (const auto& [bound, cumulative] : snapshot.buckets) {
      EXPECT_GE(cumulative, previous);
      previous = cumulative;
    }
    if (!snapshot.buckets.empty()) {
      EXPECT_EQ(snapshot.buckets.back().second, snapshot.count);
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("same.name");
  Counter& b = registry.GetCounter("same.name");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);

  Gauge& gauge = registry.GetGauge("g");
  gauge.Set(2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.Value(), 1.5);

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("same.name"), 3u);
  EXPECT_DOUBLE_EQ(snapshot.GaugeValue("g"), 1.5);
  EXPECT_EQ(snapshot.CounterValue("absent", 42u), 42u);
}

// ---------------------------------------------------------------------------
// Spans and aggregation
// ---------------------------------------------------------------------------

TEST(SpanTest, DisabledTracerRecordsNothing) {
  SpanTracer tracer;
  tracer.Emit(Phase::kExec, "task", "worker-1", 1, 0.0, 1.0);
  EXPECT_EQ(tracer.size(), 0u);
  tracer.SetEnabled(true);
  tracer.Emit(Phase::kExec, "task", "worker-1", 1, 0.0, 1.0);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(SpanTest, AggregatePhasesSumsByNameAndHonorsFilter) {
  SpanTracer tracer;
  tracer.SetEnabled(true);
  tracer.Emit(Phase::kTransfer, "task", "worker-1", 1, 0.0, 1.5);
  tracer.Emit(Phase::kTransfer, "file", "worker-1", 2, 0.0, 4.0);
  tracer.Emit(Phase::kExec, "task", "worker-1", 1, 2.0, 5.0);
  tracer.Emit(Phase::kUnpack, "task", "worker-1", 1, 1.5, 2.0);
  const auto spans = tracer.Snapshot();

  const PhaseTotals all = AggregatePhases(spans);
  EXPECT_DOUBLE_EQ(all.transfer_s, 5.5);
  EXPECT_DOUBLE_EQ(all.exec_s, 3.0);
  EXPECT_DOUBLE_EQ(all.unpack_s, 0.5);
  EXPECT_EQ(all.spans, 4u);

  const PhaseTotals no_files = AggregatePhases(
      spans, [](const SpanRecord& s) { return s.category != "file"; });
  EXPECT_DOUBLE_EQ(no_files.transfer_s, 1.5);
  EXPECT_EQ(no_files.spans, 3u);

  EXPECT_DOUBLE_EQ(no_files.TransferColumn(), 1.5);
  EXPECT_DOUBLE_EQ(no_files.WorkerColumn(), 0.5);
  EXPECT_DOUBLE_EQ(no_files.ExecColumn(), 3.0);
}

TEST(SpanTest, ConcurrentEmitLosesNothing) {
  SpanTracer tracer;
  tracer.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i)
        tracer.Emit(Phase::kExec, "task", "worker-" + std::to_string(t), i,
                    i * 1.0, i * 1.0 + 0.5);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tracer.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  const auto drained = tracer.Drain();
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(SpanTest, SnapshotConcurrentWithRecordingLosesNothing) {
  // Regression: the single-lock tracer could drop spans recorded while an
  // export held the storage lock.  The sharded tracer takes all shard locks
  // for a consistent cut, so every span emitted before the final join must
  // survive into the final snapshot.
  SpanTracer tracer;
  tracer.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4000;
  std::atomic<bool> stop{false};
  std::thread exporter([&] {
    while (!stop.load()) {
      const auto cut = tracer.Snapshot();
      // A cut is never torn: sizes only grow between snapshots.
      EXPECT_LE(cut.size(),
                static_cast<std::size_t>(kThreads) * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i)
        tracer.Emit(Phase::kExec, "task", "worker-" + std::to_string(t), i,
                    i * 1.0, i * 1.0 + 0.5);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  exporter.join();
  EXPECT_EQ(tracer.Snapshot().size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(SpanTest, StartTraceAndEmitLinkedShareOneTraceId) {
  SpanTracer tracer;
  tracer.SetEnabled(true);
  TraceContext root = tracer.StartTrace(Phase::kSubmit, "invocation",
                                        "manager", 1, 0.0, 0.1);
  ASSERT_TRUE(root.valid());
  TraceContext a = tracer.EmitLinked(root, Phase::kDispatch, "invocation",
                                     "manager", 1, 0.1, 0.2);
  TraceContext b = tracer.EmitLinked(a, Phase::kExec, "invocation",
                                     "worker-1", 1, 0.2, 0.9);
  EXPECT_EQ(a.trace_id, root.trace_id);
  EXPECT_EQ(b.trace_id, root.trace_id);
  EXPECT_NE(a.parent_span_id, root.parent_span_id);
  EXPECT_NE(b.parent_span_id, a.parent_span_id);

  const auto spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, root.trace_id);
    EXPECT_NE(span.span_id, 0u);
  }
  // Parent chain: root <- dispatch <- exec.
  EXPECT_EQ(spans[0].parent_span_id, 0u);
  EXPECT_EQ(spans[1].parent_span_id, spans[0].span_id);
  EXPECT_EQ(spans[2].parent_span_id, spans[1].span_id);
}

TEST(SpanTest, EmitLinkedDegradesWithoutTraceOrTracer) {
  SpanTracer tracer;
  // Disabled: nothing recorded, parent identity still flows through.
  const TraceContext parent{77, 99};
  EXPECT_EQ(tracer.EmitLinked(parent, Phase::kExec, "invocation", "worker-1",
                              1, 0.0, 1.0),
            parent);
  EXPECT_EQ(tracer.size(), 0u);

  // Enabled but untraced parent: the span is recorded without causal
  // identity (plain-Emit behavior), and the null context passes through.
  tracer.SetEnabled(true);
  EXPECT_EQ(tracer.EmitLinked(TraceContext{}, Phase::kExec, "invocation",
                              "worker-1", 1, 0.0, 1.0),
            TraceContext{});
  const auto spans = tracer.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].trace_id, 0u);
  EXPECT_EQ(spans[0].span_id, 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace export + validation
// ---------------------------------------------------------------------------

TEST(ExportTest, ChromeTraceRoundTrip) {
  SpanTracer tracer;
  tracer.SetEnabled(true);
  tracer.Emit(Phase::kSubmit, "task", "manager", 1, 0.0, 0.001);
  tracer.Emit(Phase::kDispatch, "task", "manager", 1, 0.001, 0.002);
  tracer.Emit(Phase::kTransfer, "task", "worker-1", 1, 0.002, 0.5);
  tracer.Emit(Phase::kExec, "task", "worker-1", 1, 0.5, 1.5);
  tracer.Emit(Phase::kResult, "task", "manager", 1, 1.5, 1.6);

  const std::string json = ToChromeTrace(tracer.Snapshot(), "test-process");
  auto check = ValidateChromeTrace(json);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->events, 5u);
  EXPECT_EQ(check->tracks, 2u);  // manager + worker-1
  EXPECT_NE(json.find("\"exec\""), std::string::npos);
  EXPECT_NE(json.find("test-process"), std::string::npos);
}

TEST(ExportTest, FlowRecordsRenderParentChildLinks) {
  SpanTracer tracer;
  tracer.SetEnabled(true);
  // One causal chain crossing tracks (manager -> worker-1 -> worker-1) plus
  // one unlinked span: three spans in the trace, two parent->child edges.
  TraceContext ctx = tracer.StartTrace(Phase::kSubmit, "invocation",
                                       "manager", 9, 0.0, 0.1);
  ctx = tracer.EmitLinked(ctx, Phase::kTransfer, "invocation", "worker-1", 9,
                          0.1, 0.4);
  ctx = tracer.EmitLinked(ctx, Phase::kExec, "invocation", "worker-1", 9,
                          0.4, 0.9);
  tracer.Emit(Phase::kResult, "invocation", "manager", 10, 1.0, 1.1);

  const std::string json = ToChromeTrace(tracer.Snapshot());
  auto check = ValidateChromeTrace(json);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->events, 4u);
  EXPECT_EQ(check->flows, 4u);  // two edges x (flow-start + flow-end)
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
}

TEST(ExportTest, ValidatorRejectsMalformedTraces) {
  // Not JSON at all.
  EXPECT_FALSE(ValidateChromeTrace("this is not json").ok());
  // Root not an object.
  EXPECT_FALSE(ValidateChromeTrace("[1,2,3]").ok());
  // Missing traceEvents.
  EXPECT_FALSE(ValidateChromeTrace("{\"other\":[]}").ok());
  // "X" event with no dur (an unclosed span).
  EXPECT_FALSE(ValidateChromeTrace(
                   "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0,\"pid\":1,"
                   "\"tid\":1,\"name\":\"a\"}]}")
                   .ok());
  // Negative dur.
  EXPECT_FALSE(ValidateChromeTrace(
                   "{\"traceEvents\":[{\"ph\":\"X\",\"ts\":0,\"dur\":-5,"
                   "\"pid\":1,\"tid\":1}]}")
                   .ok());
  // B without a matching E.
  EXPECT_FALSE(ValidateChromeTrace(
                   "{\"traceEvents\":[{\"ph\":\"B\",\"ts\":0,\"pid\":1,"
                   "\"tid\":1}]}")
                   .ok());
  // Per-track timestamps going backwards.
  EXPECT_FALSE(ValidateChromeTrace(
                   "{\"traceEvents\":["
                   "{\"ph\":\"X\",\"ts\":10,\"dur\":1,\"pid\":1,\"tid\":1},"
                   "{\"ph\":\"X\",\"ts\":5,\"dur\":1,\"pid\":1,\"tid\":1}]}")
                   .ok());
  // Balanced B/E on one track is accepted.
  auto balanced = ValidateChromeTrace(
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":1,\"name\":\"a\"},"
      "{\"ph\":\"E\",\"ts\":3,\"pid\":1,\"tid\":1}]}");
  ASSERT_TRUE(balanced.ok()) << balanced.status().ToString();
  EXPECT_EQ(balanced->events, 2u);
}

TEST(ExportTest, MetricsToJsonIsValidAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("c.one").Add(7);
  registry.GetGauge("g.two").Set(1.25);
  registry.GetHistogram("h.three").Observe(0.5);
  const std::string json = MetricsToJson(registry.Snapshot());
  EXPECT_NE(json.find("\"c.one\": 7"), std::string::npos);
  EXPECT_NE(json.find("g.two"), std::string::npos);
  EXPECT_NE(json.find("h.three"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndDumpsValidJson) {
  FlightRecorder flight(8);
  flight.Record("worker-join", "", 0, 3);
  flight.Record("xfer-fail", "checksum mismatch", 42, 3, 1024);
  const auto events = flight.Dump();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].tag, "worker-join");
  EXPECT_STREQ(events[1].tag, "xfer-fail");
  EXPECT_EQ(events[1].trace_id, 42u);
  EXPECT_EQ(events[1].a, 3u);
  EXPECT_EQ(events[1].b, 1024u);

  const std::string json = flight.DumpJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"xfer-fail\""), std::string::npos);
  EXPECT_NE(json.find("checksum mismatch"), std::string::npos);
}

TEST(FlightRecorderTest, RingWrapsKeepingMostRecent) {
  FlightRecorder flight(4);
  for (int i = 0; i < 10; ++i)
    flight.Record("evt", std::to_string(i), 0, static_cast<std::uint64_t>(i));
  EXPECT_EQ(flight.recorded(), 10u);
  const auto events = flight.Dump();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first among the survivors: 6, 7, 8, 9.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].a, 6 + i);
}

TEST(FlightRecorderTest, ConcurrentWritersWrapKeepingRecentTickets) {
  // Many writers share one small ring; every Record carries a globally
  // ordered ticket.  After the dust settles the ring must hold exactly
  // `capacity` events, all from the most recent tickets — wraparound under
  // contention may interleave but never resurrects old entries.
  constexpr std::size_t kCapacity = 32;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  FlightRecorder flight(kCapacity);
  std::atomic<std::uint64_t> ticket{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i)
        flight.Record("tick", "", 0, ticket.fetch_add(1));
    });
  }
  for (auto& t : writers) t.join();

  const auto total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(flight.recorded(), total);
  const auto events = flight.Dump();
  ASSERT_EQ(events.size(), kCapacity);
  // A writer can stall between taking its ticket and recording it, so each
  // thread may displace one recent ticket with a slightly older one.
  const std::uint64_t oldest_allowed = total - kCapacity - kThreads;
  for (const auto& event : events) {
    EXPECT_GE(event.a, oldest_allowed);
    EXPECT_LT(event.a, total);
  }
}

TEST(FlightRecorderTest, ConcurrentRecordAndDumpNeverTears) {
  FlightRecorder flight(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread dumper([&] {
    while (!stop.load()) {
      const std::string json = flight.DumpJson();
      // Every dump must parse, even while writers race the ring.
      EXPECT_TRUE(ValidateJson(json).ok());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&flight, t] {
      for (int i = 0; i < kPerThread; ++i)
        flight.Record("spin", "detail", 0, static_cast<std::uint64_t>(t), i);
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  dumper.join();
  EXPECT_EQ(flight.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(flight.Dump().size(), 64u);
}

TEST(FlightRecorderTest, DumpOnEnvWritesJsonFile) {
  FlightRecorder flight(8);
  flight.Record("kill", "injected", 0, 7);

  // Unset: no file, empty path.
  ASSERT_EQ(unsetenv("VINELET_FLIGHT_DUMP"), 0);
  EXPECT_EQ(flight.DumpOnEnv("worker-7-kill"), "");

  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("VINELET_FLIGHT_DUMP", dir.c_str(), 1), 0);
  const std::string path = flight.DumpOnEnv("worker-7-kill");
  ASSERT_EQ(unsetenv("VINELET_FLIGHT_DUMP"), 0);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("flight-worker-7-kill.json"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(ValidateJson(content.str()).ok()) << content.str();
  EXPECT_NE(content.str().find("injected"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sim vs runtime: the span-taxonomy contract
// ---------------------------------------------------------------------------

std::set<std::string> SpanNames(const std::vector<SpanRecord>& spans) {
  std::set<std::string> names;
  for (const auto& s : spans) names.insert(s.name);
  return names;
}

/// Runs a small L3 scenario in the simulator with tracing on.
std::vector<SpanRecord> SimL3Spans() {
  Telemetry telemetry;
  telemetry.tracer.SetEnabled(true);
  sim::SimConfig config;
  config.level = core::ReuseLevel::kL3;
  config.cluster.num_workers = 1;
  config.seed = 3;
  config.telemetry = &telemetry;
  // The workload keeps a pointer to its costs: they must outlive the run.
  const sim::WorkloadCosts costs = sim::LnniCosts(16);
  sim::VineSim vinesim(config, sim::BuildLnniWorkload(costs, 4));
  (void)vinesim.Run();
  return telemetry.tracer.Drain();
}

/// Runs the equivalent L3 scenario on the real threaded runtime: a library
/// with a real (tiny) poncho environment, deployed to one worker, invoked
/// a few times.
std::vector<SpanRecord> RuntimeL3Spans() {
  serde::FunctionRegistry registry;
  serde::FunctionDef fn;
  fn.name = "echo";
  fn.fn = [](const serde::Value& args,
             const serde::InvocationEnv&) -> Result<serde::Value> {
    return args;
  };
  (void)registry.RegisterFunction(fn);
  serde::ContextSetupDef setup;
  setup.name = "echo_setup";
  setup.fn = [](const serde::Value&,
                const serde::InvocationEnv&) -> Result<serde::ContextHandle> {
    return serde::ContextHandle();
  };
  (void)registry.RegisterSetup(setup);

  Telemetry telemetry;
  telemetry.tracer.SetEnabled(true);

  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  manager_config.telemetry = &telemetry;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = 1;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        factory_config);
  EXPECT_TRUE(cluster.Start().ok());
  core::Manager& manager = cluster.manager();

  // A real (tiny) environment input makes the install stage a file onto
  // the worker — the source of the "transfer" span in this scenario.
  poncho::Analyzer analyzer(
      poncho::PackageCatalog::SyntheticMlCatalog(1e-4));
  auto env = analyzer.AnalyzeImports({"python"}).value();
  auto env_decl =
      manager.DeclareBlob("env", env.tarball, storage::FileKind::kEnvironment,
                          true, true, /*unpack=*/true);
  auto spec = manager.CreateLibraryFromFunctions("echo-lib", {"echo"},
                                                 "echo_setup", serde::Value(),
                                                 nullptr);
  EXPECT_TRUE(spec.ok());
  manager.AddLibraryInput(*spec, env_decl);
  EXPECT_TRUE(manager.InstallLibrary(*spec).ok());
  for (int i = 0; i < 4; ++i) {
    auto outcome =
        manager.SubmitCall("echo-lib", "echo", serde::Value(i))->Wait();
    EXPECT_TRUE(outcome.ok());
  }
  cluster.Stop();
  return telemetry.tracer.Drain();
}

std::set<std::string> SimL3SpanNames() { return SpanNames(SimL3Spans()); }

std::set<std::string> RuntimeL3SpanNames() {
  return SpanNames(RuntimeL3Spans());
}

TEST(SpanContractTest, SimAndRuntimeEmitTheSameL3PhaseNames) {
  const std::set<std::string> sim_names = SimL3SpanNames();
  const std::set<std::string> runtime_names = RuntimeL3SpanNames();

  const std::set<std::string> expected = {
      "submit",      "dispatch",    "transfer", "unpack",
      "context-setup", "deserialize", "exec",     "result"};
  EXPECT_EQ(sim_names, expected);
  EXPECT_EQ(runtime_names, expected);
}

/// Fails if two spans of one trace overlap in time.  Per-file and admission
/// spans are skipped: they sub-measure windows other spans already cover.
void ExpectDisjointWithinTraces(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<SpanRecord>> traces;
  for (const SpanRecord& span : spans) {
    if (span.trace_id == 0 || span.category == "file" ||
        span.category == "admission")
      continue;
    traces[span.trace_id].push_back(span);
  }
  ASSERT_FALSE(traces.empty());
  for (auto& [trace_id, trace] : traces) {
    // Zero-length spans sort ahead of a span starting at the same instant.
    std::sort(trace.begin(), trace.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                return std::pair(a.start_s, a.end_s) <
                       std::pair(b.start_s, b.end_s);
              });
    for (std::size_t i = 1; i < trace.size(); ++i) {
      EXPECT_GE(trace[i].start_s, trace[i - 1].end_s)
          << "trace " << trace_id << ": " << trace[i].name << " starts inside "
          << trace[i - 1].name;
    }
  }
}

TEST(SpanContractTest, L3SpansWithinATraceAreDisjoint) {
  // The blame report attributes each instant of a trace once while phase
  // aggregation sums durations; the two agree only if spans do not nest.
  // The call that triggers a library install waits through it, so its
  // dispatch span must start when the instance is ready.
  ExpectDisjointWithinTraces(SimL3Spans());
  ExpectDisjointWithinTraces(RuntimeL3Spans());
}

}  // namespace
}  // namespace vinelet::telemetry
