// Microbenchmarks of vinelet's core primitives (google-benchmark).
//
// These quantify the constant factors behind the runtime's overheads:
// content hashing (declared context is verified), frame checksums (every
// protocol frame is CRC-32C'd at both ends), value / message
// serialization (everything crosses the network as bytes), function
// serialization, environment packing/unpacking, and scheduler data
// structures.
#include <benchmark/benchmark.h>

#include "common/buffer_pool.hpp"
#include "core/protocol.hpp"
#include "core/control_core.hpp"
#include "hash/content_id.hpp"
#include "hash/crc32c.hpp"
#include "hash/hash_ring.hpp"
#include "poncho/packer.hpp"
#include "serde/function_registry.hpp"
#include "serde/value.hpp"
#include "storage/cache_index.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeseries.hpp"

namespace {

using namespace vinelet;

void BM_Sha256(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const Blob payload = poncho::Packer::DeterministicBytes("bench", size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Sha256::Hash(payload.span()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Sha256Scalar(benchmark::State& state) {
  // The portable compression loop, pinned regardless of CPU features: the
  // BM_Sha256 / BM_Sha256Scalar pair measures what the runtime-dispatched
  // hardware backend (SHA-NI / ARMv8 crypto) buys on this machine.
  const auto size = static_cast<std::size_t>(state.range(0));
  const Blob payload = poncho::Packer::DeterministicBytes("bench", size);
  hash::Sha256::ForceScalarForTest(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Sha256::Hash(payload.span()));
  }
  hash::Sha256::ForceScalarForTest(false);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(std::string("dispatched-backend=") + hash::Sha256::Backend());
}
BENCHMARK(BM_Sha256Scalar)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Crc32c(benchmark::State& state) {
  // The frame checksum every protocol frame pays at encode and at decode,
  // on the runtime-dispatched kernel (three interleaved SSE4.2 / ARMv8 CRC
  // streams where the CPU has them).
  const auto size = static_cast<std::size_t>(state.range(0));
  const Blob payload = poncho::Packer::DeterministicBytes("bench", size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Crc32c::Of(payload.span()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
  state.SetLabel(std::string("backend=") + hash::Crc32c::Backend());
}
BENCHMARK(BM_Crc32c)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_Crc32cScalar(benchmark::State& state) {
  // The portable slicing-by-8 kernel, pinned: the BM_Crc32c /
  // BM_Crc32cScalar pair measures what the hardware kernel buys here.
  const auto size = static_cast<std::size_t>(state.range(0));
  const Blob payload = poncho::Packer::DeterministicBytes("bench", size);
  hash::Crc32c::ForceScalarForTest(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Crc32c::Of(payload.span()));
  }
  hash::Crc32c::ForceScalarForTest(false);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Crc32cScalar)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_ValueEncodeDecode(benchmark::State& state) {
  serde::ValueList list;
  for (int i = 0; i < 64; ++i) {
    list.push_back(serde::Value::Dict(
        {{"id", serde::Value(i)}, {"name", serde::Value("molecule")},
         {"energy", serde::Value(1.5 * i)}}));
  }
  const serde::Value value(std::move(list));
  for (auto _ : state) {
    const Blob blob = value.ToBlob();
    auto decoded = serde::Value::FromBlob(blob);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_ValueEncodeDecode);

void BM_SerializedFunctionRoundTrip(benchmark::State& state) {
  const auto code_size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const Blob blob = serde::SerializedFunction::Serialize(
        "lnni_infer", serde::Value(42), code_size);
    auto parsed = serde::SerializedFunction::Deserialize(blob);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_SerializedFunctionRoundTrip)->Arg(256)->Arg(4096)->Arg(65536);

void BM_BlobFromStringCopy(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const std::string text(size, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Blob::FromString(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BlobFromStringCopy)->Arg(1 << 12)->Arg(1 << 20);

void BM_BlobFromStringMove(benchmark::State& state) {
  // The move overload adopts the string's heap buffer: the per-iteration
  // cost is the string construction itself (shared with the copy benchmark)
  // plus pointer bookkeeping, never a second memcpy of the payload.
  const auto size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    std::string text(size, 'x');
    benchmark::DoNotOptimize(Blob::FromString(std::move(text)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BlobFromStringMove)->Arg(1 << 12)->Arg(1 << 20);

void BM_MessageEncodeDecode(benchmark::State& state) {
  core::RunInvocationMsg msg{1001, 3, "lnni_infer",
                             serde::Value::Dict({{"count", serde::Value(16)},
                                                 {"seed", serde::Value(7)}})
                                 .ToBlob(),
                             {},
                             {}};
  for (auto _ : state) {
    const Blob blob = core::EncodeMessage(core::Message(msg));
    auto decoded = core::DecodeMessage(blob);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_MessageEncodeDecode);

void RunMessageEncodeArena(benchmark::State& state, bool pooled) {
  // Steady-state encode traffic with the buffer pool on vs off: the pooled
  // run recycles a few warm vectors per thread, the unpooled run pays an
  // allocate/free pair (and, at MB sizes, fresh page faults) per message —
  // the arena on/off micro-primitive pair.  range(0) sizes the inline args
  // blob, spanning tiny control messages to chunk-sized payload headers.
  const auto args_bytes = static_cast<std::size_t>(state.range(0));
  BufferPool::SetEnabled(pooled);
  BufferPool::DrainThisThread();
  core::RunInvocationMsg msg{
      1001,
      3,
      "lnni_infer",
      serde::Value(std::string(args_bytes, 'x')).ToBlob(),
      {},
      {}};
  const core::Message message(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EncodeMessage(message));
  }
  BufferPool::SetEnabled(true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_MessageEncodeArenaOn(benchmark::State& state) {
  RunMessageEncodeArena(state, true);
}
BENCHMARK(BM_MessageEncodeArenaOn)->Arg(64)->Arg(1 << 16)->Arg(1 << 20);

void BM_MessageEncodeArenaOff(benchmark::State& state) {
  RunMessageEncodeArena(state, false);
}
BENCHMARK(BM_MessageEncodeArenaOff)->Arg(64)->Arg(1 << 16)->Arg(1 << 20);

core::PutFileMsg MakePutFile(std::size_t payload_bytes) {
  core::PutFileMsg msg;
  msg.decl.name = "env-tarball";
  msg.decl.id = hash::ContentId::OfText("bench-put-file");
  msg.decl.size = payload_bytes;
  msg.payload = poncho::Packer::DeterministicBytes("bench", payload_bytes);
  return msg;
}

void BM_EncodeMessagePutFile(benchmark::State& state) {
  // Self-contained encoding: the bulk payload is copied into the archive
  // (with Reserve pre-sizing the buffer to one allocation).
  const auto size = static_cast<std::size_t>(state.range(0));
  const core::Message message(MakePutFile(size));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EncodeMessage(message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_EncodeMessagePutFile)->Arg(1 << 16)->Arg(1 << 20)->Arg(4 << 20);

void BM_EncodeFramePutFile(benchmark::State& state) {
  // Wire-frame encoding: the bulk payload rides as a borrowed refcounted
  // attachment, so the cost is the small header regardless of payload size.
  const auto size = static_cast<std::size_t>(state.range(0));
  const core::Message message(MakePutFile(size));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::EncodeFrame(message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_EncodeFramePutFile)->Arg(1 << 16)->Arg(1 << 20)->Arg(4 << 20);

void BM_EnvironmentUnpack(benchmark::State& state) {
  // A scaled environment: unpack cost is the dominant worker overhead in
  // Table 5, so its throughput matters.
  poncho::PackageCatalog catalog =
      poncho::PackageCatalog::SyntheticMlCatalog(0.001);
  poncho::EnvironmentSpec spec{catalog.Resolve({"ml-inference"}).value()};
  const Blob tarball = poncho::Packer::PackEnvironment(spec);
  for (auto _ : state) {
    auto dir = poncho::Packer::Unpack(tarball);
    benchmark::DoNotOptimize(dir);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(spec.TotalUnpackedBytes()));
}
BENCHMARK(BM_EnvironmentUnpack);

void BM_HashRingOwner(benchmark::State& state) {
  hash::HashRing ring;
  for (std::uint64_t w = 1; w <= static_cast<std::uint64_t>(state.range(0));
       ++w)
    ring.Add(w);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.Owner(key++));
  }
}
BENCHMARK(BM_HashRingOwner)->Arg(16)->Arg(150);

void BM_HashRingWalk(benchmark::State& state) {
  hash::HashRing ring;
  for (std::uint64_t w = 1; w <= 150; ++w) ring.Add(w);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.WalkFrom(key++));
  }
}
BENCHMARK(BM_HashRingWalk);

void BM_SpanEmitDisabled(benchmark::State& state) {
  // The cost of tracing when it is off: EmitLinked on a disabled tracer is
  // one relaxed atomic load, so leaving the calls in the hot path is free.
  telemetry::Telemetry telemetry;
  const telemetry::TraceContext parent{1, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        telemetry.tracer.EmitLinked(parent, telemetry::Phase::kExec,
                                    "invocation", "worker-1", 0, 0.0, 1.0));
  }
}
BENCHMARK(BM_SpanEmitDisabled);

void BM_SpanEmitEnabled(benchmark::State& state) {
  telemetry::Telemetry telemetry;
  telemetry.tracer.SetEnabled(true);
  const telemetry::TraceContext parent{1, 1};
  std::size_t n = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        telemetry.tracer.EmitLinked(parent, telemetry::Phase::kExec,
                                    "invocation", "worker-1", n, 0.0, 1.0));
    // Drain periodically so memory stays bounded; the pause keeps the
    // drain out of the measured time.
    if ((++n & 0xFFFu) == 0) {
      state.PauseTiming();
      (void)telemetry.tracer.Drain();
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_SpanEmitEnabled);

void RunMetricsHotPath(benchmark::State& state, bool sampled) {
  // The instrumented completion hot path — counter bump plus latency
  // observe — with the windowed time-series sampler snapshotting the same
  // registry at 100 Hz vs not at all.  The sampler only reads atomics from
  // its own thread, so the on/off pair bounds its hot-path tax; the
  // acceptance budget is <2% (ISSUE 9), an order of magnitude above the
  // cache-line sharing this measures in practice.
  telemetry::Telemetry telemetry;
  telemetry::Counter& ops = telemetry.metrics.GetCounter("bench.ops");
  telemetry::Histogram& latency =
      telemetry.metrics.GetHistogram("bench.latency_s");
  telemetry::TimeSeriesConfig config;
  config.window_s = 0.01;  // 10x the production rate, to amplify any tax
  telemetry::TimeSeriesStore store(&telemetry.metrics, config);
  telemetry::BackgroundSampler sampler(&store, &telemetry.clock);
  if (sampled) sampler.Start();
  double x = 1e-6;
  for (auto _ : state) {
    ops.Add();
    latency.Observe(x);
    x = x < 1.0 ? x * 1.001 : 1e-6;
    benchmark::DoNotOptimize(x);
  }
  if (sampled) {
    sampler.Stop();
    state.SetLabel("windows=" + std::to_string(store.Windows().size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_MetricsHotPathSamplerOff(benchmark::State& state) {
  RunMetricsHotPath(state, false);
}
BENCHMARK(BM_MetricsHotPathSamplerOff);

void BM_MetricsHotPathSamplerOn(benchmark::State& state) {
  RunMetricsHotPath(state, true);
}
BENCHMARK(BM_MetricsHotPathSamplerOn);

void BM_TimeSeriesSampleAt(benchmark::State& state) {
  // One sampler tick over a registry at cluster scale (range = metric
  // count per kind): the off-hot-path cost of a window snapshot, which
  // bounds how fine the sampling window can reasonably be.
  const auto metrics = static_cast<std::size_t>(state.range(0));
  telemetry::Telemetry telemetry;
  for (std::size_t i = 0; i < metrics; ++i) {
    telemetry.metrics.GetCounter("bench.counter." + std::to_string(i)).Add();
    telemetry.metrics.GetGauge("bench.gauge." + std::to_string(i)).Set(1.0);
    telemetry.metrics.GetHistogram("bench.hist." + std::to_string(i))
        .Observe(0.001);
  }
  telemetry::TimeSeriesConfig config;
  config.capacity = 64;
  telemetry::TimeSeriesStore store(&telemetry.metrics, config);
  double now = 0.0;
  store.SampleAt(now);
  for (auto _ : state) {
    now += 1.0;
    store.SampleAt(now);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeSeriesSampleAt)->Arg(8)->Arg(64);

void BM_FlightRecorderRecord(benchmark::State& state) {
  // Fixed-size seqlock ring: recording never allocates, so it is safe on
  // every failure path (and cheap enough to sprinkle on hot ones).
  telemetry::Telemetry telemetry;
  std::uint64_t n = 0;
  for (auto _ : state) {
    telemetry.flight.Record("invoke", "steady-state", 1, n++, 0);
  }
}
BENCHMARK(BM_FlightRecorderRecord);

void RunDirectInvocation(benchmark::State& state, bool traced) {
  // The worker's direct-mode invocation hot path — deserialize args, run
  // the function, serialize the result — with the same two EmitLinked
  // calls the library runtime makes.  Comparing the traced and untraced
  // runs bounds the trace-recording overhead (<2% is the budget).
  telemetry::Telemetry telemetry;
  telemetry.tracer.SetEnabled(traced);
  auto& tracer = telemetry.tracer;
  serde::FunctionRegistry registry;
  auto keys = std::make_shared<std::vector<std::string>>();
  for (int i = 0; i < 128; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    keys->push_back(std::move(key));
  }
  serde::FunctionDef def;
  def.name = "bench_sum";
  def.fn = [keys](const serde::Value& args,
                  const serde::InvocationEnv&) -> Result<serde::Value> {
    std::int64_t sum = 0;
    for (const auto& key : *keys) sum += args.Get(key).AsInt();
    return serde::Value(sum);
  };
  if (!registry.RegisterFunction(def).ok()) return;
  serde::ValueDict dict;
  for (int i = 0; i < 128; ++i) dict[(*keys)[i]] = serde::Value(i);
  const Blob args_blob = serde::Value(std::move(dict)).ToBlob();
  const auto fn = registry.FindFunction("bench_sum");
  const telemetry::TraceContext root{1, 1};
  std::size_t n = 0;
  for (auto _ : state) {
    const double t0 = tracer.Now();
    auto args = serde::Value::FromBlob(args_blob);
    const double t1 = tracer.Now();
    auto result = fn->fn(*args, serde::InvocationEnv{});
    const double t2 = tracer.Now();
    auto ctx = tracer.EmitLinked(root, telemetry::Phase::kDeserialize,
                                 "invocation", "bench", n, t0, t1);
    tracer.EmitLinked(ctx, telemetry::Phase::kExec, "invocation", "bench", n,
                      t1, t2);
    benchmark::DoNotOptimize(result->ToBlob());
    if (traced && (++n & 0xFFFu) == 0) {
      state.PauseTiming();
      (void)tracer.Drain();
      state.ResumeTiming();
    }
  }
}

void BM_DirectInvocationTraceOff(benchmark::State& state) {
  RunDirectInvocation(state, false);
}
BENCHMARK(BM_DirectInvocationTraceOff);

void BM_DirectInvocationTraceOn(benchmark::State& state) {
  RunDirectInvocation(state, true);
}
BENCHMARK(BM_DirectInvocationTraceOn);

void BM_SchedulerDispatchDecision(benchmark::State& state) {
  // One full manager-side scheduling round trip at cluster scale through
  // core::ControlCore: submit a call, one pass routes it to the
  // least-loaded of `instances` warm instances (or asks the autoscaler),
  // and its reply frees the slot again.  This is the per-invocation cost
  // the control core adds to the event loop, so it must stay trivially
  // small next to the ~ms dispatch path.
  const auto instances = static_cast<std::size_t>(state.range(0));
  core::ControlCore control;
  control.AddLibrary("lib", core::Resources{1, 0, 0}, 1);
  for (std::size_t w = 1; w <= (instances + 15) / 16; ++w)
    control.AddWorker(w, core::Resources{16, 0, 0});
  // A backlog of `instances` calls deploys one single-slot instance each;
  // once ready, each takes its call, which then finishes.
  for (std::size_t i = 0; i < instances; ++i) control.Submit("lib", i);
  for (const auto& deploy : control.Pump()) {
    control.Installing(deploy.instance);
    control.Ready(deploy.instance);
  }
  for (const auto& dispatch : control.Pump())
    for (auto id : dispatch.calls) control.Finish(dispatch.instance, id);
  std::uint64_t call = instances;
  for (auto _ : state) {
    control.Submit("lib", call);
    const auto decisions = control.Pump();
    benchmark::DoNotOptimize(decisions.data());
    if (!decisions.empty()) control.Finish(decisions.front().instance, call);
    ++call;
  }
}
BENCHMARK(BM_SchedulerDispatchDecision)->Arg(16)->Arg(150)->Arg(2400);

core::RunInvocationMsg MakeRunInvocation(std::uint64_t id) {
  return {id, 3, "lnni_infer",
          serde::Value::Dict(
              {{"count", serde::Value(16)}, {"seed", serde::Value(7)}})
              .ToBlob(),
          {},
          {}};
}

void BM_EncodeRunInvocationUnbatched(benchmark::State& state) {
  // Protocol cost of dispatching `batch` invocations the legacy way: one
  // RunInvocationMsg frame each.
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < batch; ++i) {
      benchmark::DoNotOptimize(
          core::EncodeMessage(core::Message(MakeRunInvocation(i))));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EncodeRunInvocationUnbatched)->Arg(4)->Arg(16);

void BM_EncodeRunInvocationBatched(benchmark::State& state) {
  // The same `batch` invocations folded into one RunInvocationBatchMsg:
  // one frame header, one encode pass — the protocol amortization the
  // batched dispatch path buys (compare items/s against the unbatched
  // run; the ratio calibrates sim::kBatchItemCostFactor).
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    core::RunInvocationBatchMsg msg;
    msg.instance_id = 3;
    msg.items.reserve(batch);
    for (std::uint64_t i = 0; i < batch; ++i)
      msg.items.push_back(MakeRunInvocation(i));
    benchmark::DoNotOptimize(core::EncodeMessage(core::Message(msg)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EncodeRunInvocationBatched)->Arg(4)->Arg(16);

void BM_CacheIndexChurn(benchmark::State& state) {
  storage::CacheIndex cache(1 << 20);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const auto id = hash::ContentId::OfText("blob-" + std::to_string(n % 512));
    if (!cache.Touch(id)) {
      benchmark::DoNotOptimize(cache.Insert(id, 4096));
    }
    ++n;
  }
}
BENCHMARK(BM_CacheIndexChurn);

}  // namespace

BENCHMARK_MAIN();
