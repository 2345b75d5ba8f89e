// End-to-end observability tests against a live in-process cluster:
// causal trace linkage from Manager::Submit to the worker and back,
// Manager::QueryStatus introspection, the flight-recorder post-mortem
// dump after an injected worker crash, and the ClusterStatus renderers.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "cluster_fixture.hpp"
#include "core/introspect.hpp"
#include "telemetry/export.hpp"

namespace vinelet::core {
namespace {

using serde::ContextHandle;
using serde::FunctionContext;
using serde::InvocationEnv;
using serde::Value;

class SevenContext final : public FunctionContext {
 public:
  std::uint64_t MemoryBytes() const override { return sizeof(*this); }
};

/// Harness: a cluster over the parameter's transport.  Manager and
/// workers share ONE telemetry sink, so manager spans and worker spans land
/// in the same tracer (the real deployment shape for end-to-end traces).
class IntrospectTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void StartCluster(std::size_t workers, ManagerConfig manager_config = {}) {
    RegisterTestFunctions();
    manager_config.registry = &registry_;
    FactoryConfig factory_config;
    factory_config.initial_workers = workers;
    cluster_ = StartTestCluster(GetParam(), manager_config, factory_config);
    ASSERT_NE(cluster_, nullptr);
    manager_ = &cluster_->manager();
    factory_ = &cluster_->factory();
  }

  void RegisterTestFunctions() {
    serde::FunctionDef add;
    add.name = "add";
    add.fn = [](const Value& args, const InvocationEnv&) -> Result<Value> {
      return Value(args.Get("a").AsInt() + args.Get("b").AsInt());
    };
    ASSERT_TRUE(registry_.RegisterFunction(add).ok());

    serde::ContextSetupDef setup;
    setup.name = "seven_setup";
    setup.fn = [](const Value&, const InvocationEnv&) -> Result<ContextHandle> {
      return ContextHandle(std::make_shared<SevenContext>());
    };
    ASSERT_TRUE(registry_.RegisterSetup(setup).ok());

    serde::FunctionDef with_ctx;
    with_ctx.name = "with_ctx";
    with_ctx.setup_name = "seven_setup";
    with_ctx.fn = [](const Value& args,
                     const InvocationEnv& env) -> Result<Value> {
      return Value(args.Get("x").AsInt() + (env.context != nullptr ? 7 : 0));
    };
    ASSERT_TRUE(registry_.RegisterFunction(with_ctx).ok());
  }

  serde::FunctionRegistry registry_;
  std::unique_ptr<Cluster> cluster_;
  Manager* manager_ = nullptr;
  Factory* factory_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(, IntrospectTest, kBothTransports, TransportName);

// ---------------------------------------------------------------------------
// Tentpole: one trace_id from Manager::Submit through worker execution and
// back to result resolution, across a 2-worker cluster.
// ---------------------------------------------------------------------------

TEST_P(IntrospectTest, SubmitToResultSpansShareOneCausalTrace) {
  StartCluster(2);
  manager_->telemetry().tracer.SetEnabled(true);

  auto spec = manager_->CreateLibraryFromFunctions(
      "sevens", {"with_ctx"}, "seven_setup", Value(), nullptr,
      LibraryOptions{Resources{4, 1024, 1024}, 2, ExecMode::kDirect, 512});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  constexpr int kCalls = 4;
  for (int i = 0; i < kCalls; ++i) {
    (void)manager_->SubmitCall("sevens", "with_ctx",
                               Value::Dict({{"x", Value(i)}}));
  }
  (void)manager_->SubmitTask("add",
                             Value::Dict({{"a", Value(1)}, {"b", Value(2)}}),
                             {}, Resources{1, 64, 64});
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  manager_->telemetry().tracer.SetEnabled(false);

  const auto spans = manager_->telemetry().tracer.Drain();
  std::map<std::uint64_t, std::set<std::uint64_t>> ids_by_trace;
  for (const auto& span : spans) {
    if (span.trace_id != 0) ids_by_trace[span.trace_id].insert(span.span_id);
  }

  // Every invocation span is causally linked: no orphan parents.
  std::map<std::uint64_t, std::set<std::string>> names_by_trace;
  std::map<std::uint64_t, std::set<std::string>> tracks_by_trace;
  for (const auto& span : spans) {
    if (span.trace_id == 0) continue;
    if (span.parent_span_id != 0) {
      EXPECT_TRUE(ids_by_trace[span.trace_id].count(span.parent_span_id))
          << span.name << " on " << span.track << " has orphan parent "
          << span.parent_span_id;
    }
    names_by_trace[span.trace_id].insert(span.name);
    tracks_by_trace[span.trace_id].insert(span.track);
  }

  // One root trace per submission, and each completed trace runs the full
  // submit -> ... -> exec -> result chain spanning manager AND a worker
  // track (so the context crossed the wire, not just one process).
  EXPECT_EQ(names_by_trace.size(), static_cast<std::size_t>(kCalls + 1));
  for (const auto& [trace_id, names] : names_by_trace) {
    EXPECT_TRUE(names.count("submit")) << "trace " << trace_id;
    EXPECT_TRUE(names.count("exec")) << "trace " << trace_id;
    EXPECT_TRUE(names.count("result")) << "trace " << trace_id;
    EXPECT_GE(tracks_by_trace[trace_id].size(), 2u) << "trace " << trace_id;
  }

  // The call traces also cover deserialize, and at least one paid the
  // context-setup span on a worker.
  std::size_t setup_traces = 0;
  for (const auto& [trace_id, names] : names_by_trace) {
    if (names.count("context-setup")) ++setup_traces;
  }
  EXPECT_GE(setup_traces, 1u);
}

// ---------------------------------------------------------------------------
// Tentpole: live introspection over the status wire protocol.
// ---------------------------------------------------------------------------

TEST_P(IntrospectTest, QueryStatusReportsQueuesCachesAndLibrarySlots) {
  StartCluster(2);

  const Blob weights = Blob::FromString(std::string(2048, 'w'));
  const auto decl =
      manager_->DeclareBlob("weights", weights, storage::FileKind::kData);
  ASSERT_TRUE(manager_->BroadcastFile(decl)->Wait().ok());

  auto spec = manager_->CreateLibraryFromFunctions(
      "sevens", {"with_ctx"}, "seven_setup", Value(), nullptr,
      LibraryOptions{Resources{4, 1024, 1024}, 2, ExecMode::kDirect, 512});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  constexpr std::uint64_t kCalls = 8;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    (void)manager_->SubmitCall("sevens", "with_ctx",
                               Value::Dict({{"x", Value(1)}}));
  }

  // Mid-flight the query must succeed (values are racy, shape is not).
  auto midflight = manager_->QueryStatus();
  ASSERT_TRUE(midflight.ok()) << midflight.status().ToString();
  EXPECT_EQ(midflight->workers.size(), 2u);

  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  auto drained = manager_->QueryStatus();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();

  EXPECT_GT(drained->collected_s, 0.0);
  EXPECT_EQ(drained->task_queue_depth, 0u);
  ASSERT_EQ(drained->workers.size(), 2u);
  std::uint64_t served = 0;
  std::uint64_t samples = 0;
  for (const auto& worker : drained->workers) {
    // The broadcast blob is admitted (and hash-verified) on every worker.
    bool has_weights = false;
    for (const auto& entry : worker.cache) {
      if (entry.id == decl.id) {
        has_weights = true;
        EXPECT_EQ(entry.bytes, weights.size());
      }
    }
    EXPECT_TRUE(has_weights) << "worker " << worker.id;
    EXPECT_TRUE(worker.assemblies.empty()) << "worker " << worker.id;
    for (const auto& slot : worker.libraries) {
      EXPECT_EQ(slot.library, "sevens");
      EXPECT_EQ(slot.queued, 0u);
      served += slot.invocations_served;
    }
    samples += worker.latency_samples;
  }
  EXPECT_EQ(served, kCalls);
  EXPECT_GE(samples, kCalls);
  for (const auto& queue : drained->library_queues) {
    EXPECT_EQ(queue.queued, 0u);
  }
}

// ---------------------------------------------------------------------------
// Tentpole: flight-recorder post-mortem after an injected crash.
// ---------------------------------------------------------------------------

TEST_P(IntrospectTest, KilledWorkerDumpsFlightJournalAsValidJson) {
  const std::string dir = ::testing::TempDir();
  ::setenv("VINELET_FLIGHT_DUMP", dir.c_str(), 1);
  StartCluster(2);
  for (int i = 0; i < 3; ++i) {
    (void)manager_->SubmitTask("add",
                               Value::Dict({{"a", Value(i)}, {"b", Value(1)}}),
                               {}, Resources{1, 64, 64});
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());

  const auto ids = factory_->WorkerIds();
  ASSERT_FALSE(ids.empty());
  const WorkerId victim = ids.front();
  ASSERT_TRUE(factory_->KillWorker(victim).ok());
  ::unsetenv("VINELET_FLIGHT_DUMP");

  const std::string path =
      dir + (dir.back() == '/' ? "" : "/") + "flight-worker-" +
      std::to_string(victim) + "-kill.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing dump: " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_TRUE(telemetry::ValidateJson(dump).ok()) << dump;
  EXPECT_NE(dump.find("\"kill\""), std::string::npos);
  EXPECT_NE(dump.find("\"events\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Renderers: the status report carries everything the CLI prints.
// ---------------------------------------------------------------------------

ClusterStatus SampleStatus() {
  ClusterStatus status;
  status.collected_s = 1.5;
  status.task_queue_depth = 3;
  status.library_queues = {{"lnni", 4}};
  status.broadcasts = {
      {"weights", hash::ContentId::OfText("weights"), 6, {2, 3}}};
  WorkerStatus fast;
  fast.id = 1;
  fast.inbox_depth = 1;
  fast.tasks_executed = 10;
  fast.cache = {{hash::ContentId::OfText("weights"), 2048}};
  fast.assemblies = {{hash::ContentId::OfText("env"), 2, 6}};
  fast.libraries = {{5, "lnni", 12, 2}};
  fast.p95_latency_s = 0.010;
  fast.latency_samples = 10;
  WorkerStatus slow = fast;
  slow.id = 2;
  slow.p95_latency_s = 0.500;
  slow.straggler = true;
  status.workers = {fast, slow};
  status.cluster_median_p95_s = 0.010;
  telemetry::SloSnapshot slo;
  slo.library = "lnni";
  slo.latency_target_s = 0.1;
  slo.target_fraction = 0.95;
  slo.window_s = 10.0;
  slo.samples = 20;
  slo.violations = 2;
  slo.violation_fraction = 0.1;
  slo.p50_s = 0.010;
  slo.p99_s = 0.500;
  slo.goodput_per_s = 2.0;
  slo.burn_rate = 2.0;
  slo.latency_breached = true;
  status.slo = {slo};
  return status;
}

TEST(ClusterStatusRenderTest, FormatMentionsEveryReportedFact) {
  const std::string text = FormatClusterStatus(SampleStatus());
  EXPECT_NE(text.find("task queue: 3"), std::string::npos);
  EXPECT_NE(text.find("library queue lnni: 4"), std::string::npos);
  EXPECT_NE(text.find("broadcast weights"), std::string::npos);
  EXPECT_NE(text.find("2 subtree(s) pending"), std::string::npos);
  EXPECT_NE(text.find("library lnni#5: served 12, queued 2"),
            std::string::npos);
  EXPECT_NE(text.find("assembling"), std::string::npos);
  EXPECT_NE(text.find("** STRAGGLER **"), std::string::npos);
  // Only the slow worker is flagged.
  EXPECT_EQ(text.find("** STRAGGLER **"), text.rfind("** STRAGGLER **"));
}

TEST(ClusterStatusRenderTest, JsonIsValidAndFlagsTheStraggler) {
  const std::string json = ClusterStatusToJson(SampleStatus());
  ASSERT_TRUE(telemetry::ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"straggler\":true"), std::string::npos);
  EXPECT_NE(json.find("\"straggler\":false"), std::string::npos);
  EXPECT_NE(json.find("\"task_queue_depth\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"queued\":4"), std::string::npos);
}

TEST(ClusterStatusRenderTest, FormatRendersSloAndBreachFlag) {
  const std::string text = FormatClusterStatus(SampleStatus());
  EXPECT_NE(text.find("slo lnni: 20 sample(s), viol 0.100 (2)"),
            std::string::npos);
  EXPECT_NE(text.find("p50 0.010s, p99 0.500s, goodput 2.000/s, burn 2.000"),
            std::string::npos);
  EXPECT_NE(text.find("** SLO BREACH latency **"), std::string::npos);
  // The breach flag disappears when the SLO is healthy.
  ClusterStatus healthy = SampleStatus();
  healthy.slo[0].latency_breached = false;
  EXPECT_EQ(FormatClusterStatus(healthy).find("SLO BREACH"),
            std::string::npos);
}

TEST(ClusterStatusRenderTest, JsonCarriesTheSloArrayRoundTrip) {
  const std::string json = ClusterStatusToJson(SampleStatus());
  ASSERT_TRUE(telemetry::ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"slo\": ["), std::string::npos);
  EXPECT_NE(json.find("\"library\":\"lnni\""), std::string::npos);
  EXPECT_NE(json.find("\"violation_fraction\":0.100"), std::string::npos);
  EXPECT_NE(json.find("\"burn_rate\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"latency_breached\":true"), std::string::npos);
  EXPECT_NE(json.find("\"goodput_breached\":false"), std::string::npos);
  // An empty SLO list still renders a valid (empty) array.
  ClusterStatus quiet = SampleStatus();
  quiet.slo.clear();
  ASSERT_TRUE(telemetry::ValidateJson(ClusterStatusToJson(quiet)).ok());
}

TEST(ClusterStatusRenderTest, HealthPredicatesDriveTheCliExitCode) {
  ClusterStatus status = SampleStatus();
  EXPECT_TRUE(AnyStraggler(status));
  EXPECT_TRUE(AnySloBreach(status));
  status.workers[1].straggler = false;
  status.slo[0].latency_breached = false;
  EXPECT_FALSE(AnyStraggler(status));
  EXPECT_FALSE(AnySloBreach(status));
  status.slo[0].goodput_breached = true;
  EXPECT_TRUE(AnySloBreach(status));
  EXPECT_FALSE(AnySloBreach(ClusterStatus{}));
}

}  // namespace
}  // namespace vinelet::core
