// Pass-by-reference data plane A/B: by-value vs BlobRef results on a
// fan-out/fan-in DAG over the real threaded runtime.
//
// The workload models the paper's data-dependent stages: P producers each
// emit a ~payload_bytes result; every producer's output fans out to C
// consumers, and one fan-in call per mode folds all P outputs together.
// DAG edges are wired with OnReady — the producer's resolved value (inline
// bytes by-value, a WrapRef dict by-ref) is passed positionally to its
// consumers, exactly as an application would chain futures.
//
// By-value, every edge payload crosses the manager twice: once inline in
// InvocationDone, once again inside each consumer's dispatch args.  By-ref,
// the payload stays pinned on the producing worker and consumers fetch it
// peer-to-peer (or hit it locally), so manager-relayed result bytes for the
// DAG stage collapse to the small scalar results.
//
// Usage: bench_ref_dataplane [--smoke]
//   --smoke   2 workers, 4 producers x 4 consumers, 256 KiB payloads (CI)
// Writes BENCH_ref_dataplane.json; exits non-zero if any invocation failed
// or the by-ref run relayed DAG payload bytes through the manager.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/blob_ref.hpp"
#include "core/cluster.hpp"
#include "core/manager.hpp"

namespace {

using namespace vinelet;
using bench::Section;
using bench::Table;
using serde::Value;

struct Params {
  std::size_t workers = 4;
  std::size_t producers = 8;
  std::size_t consumers_per = 6;  // fan-out degree per producer
  std::int64_t payload_bytes = 1 << 20;
  double timeout_s = 120.0;
};

struct ModeResult {
  double makespan_s = 0.0;
  double p99_s = 0.0;
  std::uint64_t relayed_result_bytes = 0;  // inline result bytes -> manager
  std::uint64_t p2p_fetch_bytes = 0;
  std::uint64_t refs_held = 0;
  std::uint64_t ref_results = 0;
  std::size_t failures = 0;
};

void RegisterBenchFunctions(serde::FunctionRegistry& registry) {
  serde::FunctionDef make_payload;
  make_payload.name = "make_payload";
  make_payload.fn = [](const Value& args,
                       const serde::InvocationEnv&) -> Result<Value> {
    auto bytes = args.GetInt("bytes");
    if (!bytes.ok()) return bytes.status();
    auto fill = args.GetInt("fill");
    if (!fill.ok()) return fill.status();
    return Value(std::string(static_cast<std::size_t>(*bytes),
                             static_cast<char>('a' + *fill % 23)));
  };
  (void)registry.RegisterFunction(make_payload);

  serde::FunctionDef probe;
  probe.name = "payload_probe";
  probe.fn = [](const Value& args,
                const serde::InvocationEnv&) -> Result<Value> {
    if (args.type() != Value::Type::kList || args.AsList().empty())
      return InvalidArgumentError("expected positional [payload]");
    const Value& payload = args.AsList()[0];
    if (payload.type() != Value::Type::kString)
      return InvalidArgumentError("payload not materialized");
    const std::string& s = payload.AsString();
    return Value(static_cast<std::int64_t>(s.size()) +
                 static_cast<std::int64_t>(s[0]));
  };
  (void)registry.RegisterFunction(probe);

  serde::FunctionDef fold;
  fold.name = "sum_payloads";
  fold.fn = [](const Value& args,
               const serde::InvocationEnv&) -> Result<Value> {
    if (args.type() != Value::Type::kList)
      return InvalidArgumentError("expected positional payload list");
    std::int64_t total = 0;
    for (const Value& payload : args.AsList()) {
      if (payload.type() != Value::Type::kString)
        return InvalidArgumentError("payload not materialized");
      total += static_cast<std::int64_t>(payload.AsString().size());
    }
    return Value(total);
  };
  (void)registry.RegisterFunction(fold);
}

ModeResult RunMode(const Params& params, bool by_ref) {
  ModeResult out;
  serde::FunctionRegistry registry;
  RegisterBenchFunctions(registry);
  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = params.workers;
  // By-ref mode: any result >= 64 KiB stays on its producing worker.
  factory_config.ref_results_min_bytes = by_ref ? 64 * 1024 : 0;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        factory_config);
  if (!cluster.Start().ok()) return out;
  core::Manager& manager = cluster.manager();

  // slots=2 with whole-worker resources: a consumer backlog forces the
  // autoscaler to recruit additional workers, so DAG edges genuinely cross
  // worker boundaries instead of resolving as local cache hits.
  core::LibraryOptions options;
  options.slots = 2;
  auto spec = manager.CreateLibraryFromFunctions(
      "data", {"make_payload", "payload_probe", "sum_payloads"}, "", Value(),
      nullptr, options);
  if (!spec.ok() || !manager.InstallLibrary(*spec).ok()) return out;

  std::mutex mu;
  std::vector<double> latencies;  // consumer submit -> resolve, seconds
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> producers_done{0};
  std::vector<Value> produced(params.producers);

  const auto start = std::chrono::steady_clock::now();
  auto now_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  const std::int64_t bytes = params.payload_bytes;
  for (std::size_t p = 0; p < params.producers; ++p) {
    auto future = manager.SubmitCall(
        "data", "make_payload",
        Value::Dict({{"bytes", Value(bytes)},
                     {"fill", Value(static_cast<std::int64_t>(p))}}));
    future->OnReady([&, p](const Result<core::Outcome>& outcome) {
      if (!outcome.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::int64_t expected =
          bytes + ('a' + static_cast<std::int64_t>(p) % 23);
      {
        std::lock_guard<std::mutex> lock(mu);
        produced[p] = outcome->value;
      }
      // Fan-out: C consumers per producer, each fed the resolved value
      // (inline payload by-value, WrapRef placeholder by-ref).
      for (std::size_t c = 0; c < params.consumers_per; ++c) {
        const double submitted = now_s();
        auto consumer = manager.SubmitCall("data", "payload_probe",
                                           Value::List({outcome->value}));
        consumer->OnReady(
            [&, submitted, expected](const Result<core::Outcome>& probed) {
              if (!probed.ok() || probed->value.AsInt() != expected) {
                failures.fetch_add(1);
                return;
              }
              std::lock_guard<std::mutex> lock(mu);
              latencies.push_back(now_s() - submitted);
            });
      }
      // Fan-in: once every producer resolved, fold all P outputs in one
      // call — a consumer with P ref args by-ref.
      if (producers_done.fetch_add(1) + 1 == params.producers) {
        serde::ValueList all;
        {
          std::lock_guard<std::mutex> lock(mu);
          all.assign(produced.begin(), produced.end());
        }
        const std::int64_t total =
            static_cast<std::int64_t>(params.producers) * bytes;
        auto folded =
            manager.SubmitCall("data", "sum_payloads", Value(std::move(all)));
        folded->OnReady([&, total](const Result<core::Outcome>& fold) {
          if (!fold.ok() || fold->value.AsInt() != total) failures.fetch_add(1);
        });
      }
    });
  }

  if (!manager.WaitAll(params.timeout_s).ok()) failures.fetch_add(1);
  out.makespan_s = now_s();
  out.failures = failures.load();

  auto status = manager.QueryStatus();
  if (status.ok()) {
    for (const auto& w : status->workers) {
      out.relayed_result_bytes += w.relayed_result_bytes;
      out.p2p_fetch_bytes += w.p2p_fetch_bytes;
      out.refs_held += w.refs_held;
    }
  }
  out.ref_results = manager.metrics().ref_results;

  {
    std::lock_guard<std::mutex> lock(mu);
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      const std::size_t idx =
          std::min(latencies.size() - 1, (latencies.size() * 99) / 100);
      out.p99_s = latencies[idx];
    }
  }

  cluster.Stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Params params;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      params.workers = 2;
      params.producers = 4;
      params.consumers_per = 4;
      params.payload_bytes = 256 * 1024;
    }
  }

  Section("Pass-by-reference data plane: fan-out/fan-in DAG A/B");
  std::printf(
      "workers=%zu producers=%zu consumers/producer=%zu payload=%lld B\n",
      params.workers, params.producers, params.consumers_per,
      static_cast<long long>(params.payload_bytes));

  const ModeResult value = RunMode(params, /*by_ref=*/false);
  const ModeResult ref = RunMode(params, /*by_ref=*/true);

  Table table({"mode", "makespan", "consumer p99", "mgr-relayed result B",
               "p2p fetch B", "ref results", "failures"});
  auto row = [&](const char* name, const ModeResult& r) {
    table.AddRow({name, bench::Seconds(r.makespan_s, 3),
                  bench::Seconds(r.p99_s, 3),
                  std::to_string(r.relayed_result_bytes),
                  std::to_string(r.p2p_fetch_bytes),
                  std::to_string(r.ref_results),
                  std::to_string(r.failures)});
  };
  row("by-value", value);
  row("by-ref", ref);
  table.Print();

  bench::JsonReport report("ref_dataplane");
  report.AddMeasured("value_makespan_s", value.makespan_s);
  report.AddMeasured("ref_makespan_s", ref.makespan_s);
  report.AddMeasured("value_consumer_p99_s", value.p99_s);
  report.AddMeasured("ref_consumer_p99_s", ref.p99_s);
  report.AddMeasured("value_manager_relayed_result_bytes",
                     static_cast<double>(value.relayed_result_bytes));
  report.AddMeasured("ref_manager_relayed_result_bytes",
                     static_cast<double>(ref.relayed_result_bytes));
  report.AddMeasured("ref_p2p_fetch_bytes",
                     static_cast<double>(ref.p2p_fetch_bytes));
  report.AddMeasured("ref_results", static_cast<double>(ref.ref_results));
  report.AddMeasured("makespan_speedup",
                     ref.makespan_s > 0 ? value.makespan_s / ref.makespan_s
                                        : 0.0);
  report.Write();

  // Gates: no failed invocations, and by-ref must keep DAG payload bytes
  // out of the manager — its inline result traffic must be under one
  // producer payload (the scalar consumer results are a few bytes each).
  bool ok = value.failures == 0 && ref.failures == 0;
  if (ref.ref_results < params.producers) {
    std::printf("FAIL: expected >= %zu ref results, saw %llu\n",
                params.producers,
                static_cast<unsigned long long>(ref.ref_results));
    ok = false;
  }
  if (ref.relayed_result_bytes >=
      static_cast<std::uint64_t>(params.payload_bytes)) {
    std::printf("FAIL: by-ref relayed %llu result bytes through the manager\n",
                static_cast<unsigned long long>(ref.relayed_result_bytes));
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
