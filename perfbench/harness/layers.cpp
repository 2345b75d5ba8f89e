// Per-layer ledger shared by the workloads: every number here is read from
// outside the runtime — Outcome.timing, the metrics registry snapshot,
// QueryStatus, ConnectionsSnapshot, getrusage — or timed by the benchmark
// around calls into public functions.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "hash/sha256.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"

namespace perfbench {

using namespace vinelet;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct RefCounters {
  std::uint64_t p2p_fetch_bytes = 0;
  std::uint64_t relayed_result_bytes = 0;
};

RefCounters QueryRefCounters(core::Manager& manager) {
  RefCounters out;
  auto status = manager.QueryStatus(10.0);
  if (!status.ok()) return out;
  for (const auto& worker : status->workers) {
    out.p2p_fetch_bytes += worker.p2p_fetch_bytes;
    out.relayed_result_bytes += worker.relayed_result_bytes;
  }
  return out;
}

struct ConnTotals {
  std::uint64_t frames = 0;  // sent + received
  std::uint64_t bytes = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t stalls = 0;
  std::uint64_t peak_queue = 0;
};

ConnTotals Totals(const std::vector<net::ConnectionStats>& conns) {
  ConnTotals t;
  for (const auto& c : conns) {
    t.frames += c.frames_sent + c.frames_received;
    t.bytes += c.bytes_sent + c.bytes_received;
    t.frames_sent += c.frames_sent;
    t.bytes_sent += c.bytes_sent;
    t.stalls += c.backpressure_stalls;
    t.peak_queue = std::max(t.peak_queue, c.peak_queue_bytes);
  }
  return t;
}

/// Mean seconds per call of `fn`, repeated for about `budget_s`.
template <typename Fn>
double TimePerCall(Fn&& fn, double budget_s) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t calls = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < budget_s);
  return elapsed / static_cast<double>(calls);
}

struct Quantile {
  double value = 0.0;  ///< 0 without samples
  std::size_t samples = 0;
};

Quantile HistQuantile(const telemetry::MetricsSnapshot& snap,
                      const std::string& name, double q) {
  const auto* h = snap.HistogramFor(name);
  if (h == nullptr || h->count == 0) return {};
  return {h->Quantile(q), h->count};
}

}  // namespace

LayerBaseline BeginMeasured(TcpCluster& cluster) {
  LayerBaseline base;
  const RefCounters refs = QueryRefCounters(cluster.manager());
  base.p2p_fetch_bytes = refs.p2p_fetch_bytes;
  base.relayed_result_bytes = refs.relayed_result_bytes;
  base.setup = cluster.telemetry().metrics.Snapshot();
  cluster.telemetry().metrics.Reset();
  cluster.send_seconds().Reset();
  cluster.frames_sent().Reset();
  base.hub = cluster.HubConnections();
  base.all = cluster.AllConnections();
  base.usage = ProcessUsage();
  return base;
}

void ReportLayers(TcpCluster& cluster, const LayerBaseline& base,
                  const LayerInputs& in, Report& report) {
  const Usage usage = ProcessUsage();
  const ConnTotals hub_now = Totals(cluster.HubConnections());
  const ConnTotals hub_then = Totals(base.hub);
  const ConnTotals all_now = Totals(cluster.AllConnections());
  const ConnTotals all_then = Totals(base.all);
  const RefCounters refs = QueryRefCounters(cluster.manager());
  const auto snap = cluster.telemetry().metrics.Snapshot();
  const double ops = static_cast<double>(std::max<std::uint64_t>(in.ops, 1));
  const std::size_t n_ops = in.ops;

  // bench / l3-open only (the l3-open workload overwrites these).
  report.Set("gen.late_p99_ms", 0.0, "ms", 0);
  for (const char* part : {"gen_late", "submit", "control_wire", "deserialize",
                           "exec", "wake", "e2e", "residual"})
    report.Set(std::string("ledger.") + part + "_ms", 0.0, "ms", 0);

  // core/manager
  const Summary submit = Summarize(in.submit_s);
  report.Set("manager.submit_us_p50", submit.median * 1e6, "us", submit.samples);
  const auto* batch = snap.HistogramFor("manager.dispatch_batch_size");
  report.Set("manager.batch_size_mean", batch ? batch->Mean() : 0.0, "count",
             batch ? batch->count : 0);
  Quantile roundtrip = HistQuantile(snap, "manager.invocation_roundtrip_s", 0.5);
  if (roundtrip.samples == 0)
    roundtrip = HistQuantile(snap, "manager.task_roundtrip_s", 0.5);
  report.Set("manager.roundtrip_ms_p50", roundtrip.value * 1e3, "ms",
             roundtrip.samples);
  report.Set("manager.frames_per_op",
             static_cast<double>(hub_now.frames - hub_then.frames) / ops,
             "count", n_ops);
  const double hits = static_cast<double>(snap.CounterValue("manager.affinity_hits"));
  const double misses =
      static_cast<double>(snap.CounterValue("manager.affinity_misses"));
  report.Set("manager.affinity_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
             static_cast<std::size_t>(hits + misses));
  report.Set("manager.deploys",
             static_cast<double>(snap.CounterValue("manager.libraries_deployed")),
             "count", 1);
  report.Set("manager.evicts",
             static_cast<double>(snap.CounterValue("manager.libraries_evicted")),
             "count", 1);
  report.Set("manager.retries",
             static_cast<double>(snap.CounterValue("manager.retries")), "count",
             1);

  // core/protocol + serde: wire volume and replayed encode/decode cost.
  report.Set("protocol.wire_bytes_per_op",
             static_cast<double>(hub_now.bytes - hub_then.bytes) / ops, "B",
             n_ops);
  double encode_s = 0.0, decode_s = 0.0;
  for (const auto& message : in.replay) {
    const Blob wire = core::EncodeMessage(message);
    encode_s += TimePerCall([&] { (void)core::EncodeMessage(message); }, 0.02);
    decode_s += TimePerCall([&] { (void)core::DecodeMessage(wire); }, 0.02);
  }
  const double kinds = static_cast<double>(std::max<std::size_t>(in.replay.size(), 1));
  report.Set("protocol.encode_us", encode_s / kinds * 1e6, "us", in.replay.size());
  report.Set("protocol.decode_us", decode_s / kinds * 1e6, "us", in.replay.size());

  // net
  const auto send = cluster.send_seconds().Snapshot();
  report.Set("net.send_us_p50", send.count ? send.Quantile(0.5) * 1e6 : 0.0,
             "us", send.count);
  const std::uint64_t frames_sent = all_now.frames_sent - all_then.frames_sent;
  report.Set("net.bytes_per_frame",
             frames_sent ? static_cast<double>(all_now.bytes_sent -
                                               all_then.bytes_sent) /
                               static_cast<double>(frames_sent)
                         : 0.0,
             "B", frames_sent);
  report.Set("net.backpressure_stalls",
             static_cast<double>(all_now.stalls - all_then.stalls), "count", 1);
  report.Set("net.peak_queue_mb", static_cast<double>(all_now.peak_queue) / kMiB,
             "MB", 1);

  // core/worker (stateless tasks)
  const double tasks = static_cast<double>(std::max<std::uint64_t>(in.tasks, 1));
  report.Set("worker.transfer_ms", in.task_transfer_s / tasks * 1e3, "ms",
             in.tasks);
  report.Set("worker.stage_ms", in.task_stage_s / tasks * 1e3, "ms", in.tasks);

  // poncho
  const Quantile unpack = HistQuantile(snap, "worker.unpack_s", 0.5);
  report.Set("poncho.unpack_ms_p50", unpack.value * 1e3, "ms", unpack.samples);
  report.Set("poncho.unpacks_per_task",
             static_cast<double>(snap.CounterValue("worker.unpacks")) / tasks,
             "count", in.tasks);
  report.Set("poncho.pack_s", in.pack_s, "s", in.pack_s > 0 ? 1 : 0);

  // core/library_runtime
  const Quantile exec = HistQuantile(snap, "library.invocation_exec_s", 0.5);
  report.Set("library.exec_ms_p50", exec.value * 1e3, "ms", exec.samples);
  const Summary deser = Summarize(in.deserialize_s);
  report.Set("library.deserialize_us_p50", deser.median * 1e6, "us",
             deser.samples);
  report.Set("library.rebuilt_ratio",
             in.rebuilt_of ? static_cast<double>(in.rebuilt) /
                                 static_cast<double>(in.rebuilt_of)
                           : 0.0,
             "ratio", in.rebuilt_of);
  // Library set-ups of the set-up phase and of the measured section.
  double setup_sum = 0.0;
  std::uint64_t setup_count = 0;
  for (const auto* phase : {&base.setup, &snap}) {
    if (const auto* setup = phase->HistogramFor("library.setup_s")) {
      setup_sum += setup->sum;
      setup_count += setup->count;
    }
  }
  report.Set("library.setup_ms",
             setup_count ? setup_sum / static_cast<double>(setup_count) * 1e3 : 0.0,
             "ms", setup_count);

  // storage + hash
  report.Set("storage.broadcast_s", in.broadcast_s, "s", in.broadcast_s > 0 ? 1 : 0);
  // Distribution happens in set-up and (L2 staging) in the section.
  auto both = [&](const char* counter) {
    return static_cast<double>(base.setup.CounterValue(counter) +
                               snap.CounterValue(counter));
  };
  report.Set("storage.peer_transfer_mb",
             both("manager.peer_transfer_bytes") / kMiB, "MB", 1);
  report.Set("storage.chunks_relayed", both("worker.chunks_relayed"), "count", 1);
  {
    const Blob buffer(std::vector<std::uint8_t>(8u << 20, 0x5a));
    const double per_hash =
        TimePerCall([&] { (void)hash::Sha256::Hash(buffer.span()); }, 0.05);
    report.Set("hash.sha256_mb_per_s", 8.0 / per_hash, "MB/s", 1);
  }

  // refs: pass-by-reference data plane
  const double fetched =
      static_cast<double>(refs.p2p_fetch_bytes - base.p2p_fetch_bytes);
  report.Set("refs.p2p_fetch_mb", fetched / kMiB, "MB", 1);
  report.Set("refs.relayed_result_mb",
             static_cast<double>(refs.relayed_result_bytes -
                                 base.relayed_result_bytes) /
                 kMiB,
             "MB", 1);
  report.Set("refs.local_hit_ratio",
             in.ref_bytes_consumed
                 ? std::max(0.0, 1.0 - fetched / static_cast<double>(
                                                     in.ref_bytes_consumed))
                 : 0.0,
             "ratio", in.ref_bytes_consumed ? n_ops : 0);

  // process
  report.Set("proc.cpu_us_per_op", (usage.cpu_s - base.usage.cpu_s) / ops * 1e6,
             "us", n_ops);
  report.Set("proc.csw_per_op",
             static_cast<double>(usage.csw - base.usage.csw) / ops, "count",
             n_ops);
}

void RunSections(const RunConfig& config, Report& report,
                 const MeasureFn& measure) {
  std::vector<double> setups;
  if (!config.trace) {
    measure(false, config.seconds, setups);
    report.Set("setup_s", Median(setups), "s", setups.size());
    report.Set("rss_peak_mb", ProcessUsage().max_rss_mb, "MB", 1);
    return;
  }
  const double untraced = measure(false, config.seconds * 0.4, setups);
  const double traced = measure(true, config.seconds * 0.6, setups);
  report.Set("trace.overhead_ratio",
             traced > 0 ? untraced / traced : 0.0, "ratio", 2);
}

}  // namespace perfbench
