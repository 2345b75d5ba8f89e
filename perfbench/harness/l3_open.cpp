// l3-open: a tiny L3 function served from a warm library.
//
// Phase 1 offers a fixed absolute rate of Poisson arrivals (open loop) and
// measures latency from each request's intended send time to the moment an
// application thread observes the result.  Phase 2 keeps a deep backlog of
// calls outstanding and measures saturated throughput.  The function body
// is a few arithmetic operations on ~100 bytes of arguments, so nearly all
// of the time is the runtime itself: manager, protocol + serde, and TCP.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>

#include "harness/closed_loop.hpp"
#include "harness/open_loop.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"

namespace perfbench {

using namespace vinelet;
using serde::Value;

namespace {

/// Offered load of the open-loop phase.  A fixed absolute rate, never
/// derived from the run: about a tenth of the backlog phase's saturated
/// rate on a 4-vCPU host (~55k calls/s), where the generator keeps time
/// (gen.late_p99_ms ~0.1 ms).
constexpr double kOpenLoopRate = 5000.0;
/// Calls kept outstanding in the backlog phase.
constexpr std::size_t kBacklogWindow = 2048;
/// Open-loop latency is summarized per window of this many seconds.
constexpr double kLatencyWindowS = 0.5;
constexpr std::size_t kTagBytes = 80;
/// Distinct backlog requests (cycled); results are checked per request.
constexpr std::size_t kBacklogPool = 1 << 16;

std::int64_t Affine(std::int64_t x, std::int64_t k, std::size_t tag_bytes) {
  return x * 7 + k * 3 - static_cast<std::int64_t>(tag_bytes);
}

void RegisterFunctions(serde::FunctionRegistry& registry) {
  serde::FunctionDef def;
  def.name = "l3_affine";
  def.fn = [](const Value& args, const serde::InvocationEnv&) -> Result<Value> {
    auto x = args.GetInt("x");
    if (!x.ok()) return x.status();
    auto k = args.GetInt("k");
    if (!k.ok()) return k.status();
    auto tag = args.GetString("tag");
    if (!tag.ok()) return tag.status();
    return Value(Affine(*x, *k, tag->size()));
  };
  (void)registry.RegisterFunction(def);
}

struct Request {
  std::int64_t x = 0;
  std::int64_t k = 0;
};

Value Args(const Request& r, const std::string& tag) {
  return Value::Dict({{"x", Value(r.x)}, {"k", Value(r.k)}, {"tag", Value(tag)}});
}

/// Requests drawn from the seed: x < 2^40 so the arithmetic never overflows.
std::vector<Request> MakeRequests(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<Request> out(n);
  for (auto& r : out) {
    r.x = static_cast<std::int64_t>(rng() >> 24);
    r.k = static_cast<std::int64_t>(rng() % 1000);
  }
  return out;
}

struct Setup {
  std::unique_ptr<TcpCluster> cluster;
  double seconds = 0.0;
  double broadcast_s = 0.0;
};

Result<Setup> SetUp(const serde::FunctionRegistry& registry, bool traced,
                    const std::string& tag, const Blob& shared_data) {
  const double start = NowS();
  Setup setup;
  ClusterOptions options;
  options.registry = &registry;
  options.timed_transport = traced;
  setup.cluster = std::make_unique<TcpCluster>(options);
  VINELET_RETURN_IF_ERROR(setup.cluster->Start());
  core::Manager& manager = setup.cluster->manager();
  core::LibraryOptions library;
  library.resources = {2, 1024, 1024};
  library.slots = 8;
  library.exec_mode = core::ExecMode::kDirect;
  auto spec = manager.CreateLibraryFromFunctions("l3", {"l3_affine"}, "",
                                                 Value(), nullptr, library);
  if (!spec.ok()) return spec.status();
  auto shared = DistributeSharedData(manager, "l3-shared.bin", shared_data,
                                     &setup.broadcast_s);
  if (!shared.ok()) return shared.status();
  manager.AddLibraryInput(*spec, *shared);
  VINELET_RETURN_IF_ERROR(manager.InstallLibrary(*spec));
  std::int64_t i = 0;
  VINELET_RETURN_IF_ERROR(WarmLibrary(manager, "l3", 64, [&] {
    return manager.SubmitCall("l3", "l3_affine", Args({++i, 1}, tag));
  }));
  setup.seconds = NowS() - start;
  return setup;
}

/// What the open-loop phase measured, per request.
struct OpenLoopRun {
  Summary latency;
  double window_p50 = 0.0, window_p90 = 0.0, window_p99 = 0.0;  // medians over windows
  double best_window_p50 = 0.0;  // best decile of the windows' p50
  std::size_t windows = 0;
  Summary lateness;
  std::uint64_t attempted = 0, succeeded = 0, mismatches = 0;
  // Ledger components, seconds, one entry per successful request.
  std::vector<double> late, submit, roundtrip, control, deser, exec, wake, e2e;
};

OpenLoopRun RunOpenLoop(core::Manager& manager, std::uint64_t seed,
                        double duration_s, const std::string& tag) {
  OpenLoop loop(PoissonSchedule(seed, kOpenLoopRate, duration_s));
  const std::size_t n = loop.size();
  const std::vector<Request> requests = MakeRequests(seed ^ 0x9e3779b97f4a7c15ULL, n);
  struct Record {
    double submitted = 0, resolved = 0, deser = 0, exec = 0;
    bool ok = false;
  };
  std::vector<Record> records(n);
  std::atomic<std::uint64_t> mismatches{0};

  // Results are observed by an application thread, as a caller blocked on
  // its futures would: the manager thread only stamps and queues them.
  SteadyPacer pacer;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::size_t> ready;
  bool done = false;
  std::thread collector([&] {
    std::vector<std::size_t> batch;
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return done || !ready.empty(); });
      if (ready.empty() && done) return;
      batch.swap(ready);
      lock.unlock();
      const double observed = pacer.Now();
      for (std::size_t i : batch) loop.Complete(i, observed, records[i].ok);
      batch.clear();
      lock.lock();
    }
  });

  loop.Run(pacer, [&](std::size_t i) {
    auto future = manager.SubmitCall("l3", "l3_affine", Args(requests[i], tag));
    records[i].submitted = pacer.Now();
    future->OnReady([&, i](const Result<core::Outcome>& outcome) {
      Record& r = records[i];
      r.resolved = pacer.Now();
      if (outcome.ok()) {
        r.ok = true;
        r.deser = outcome->timing.deserialize_s;
        r.exec = outcome->timing.exec_s;
        const Value& v = outcome->value;
        if (v.type() != Value::Type::kInt ||
            v.AsInt() != Affine(requests[i].x, requests[i].k, tag.size()))
          mismatches.fetch_add(1);
      }
      std::lock_guard<std::mutex> lock(mu);
      ready.push_back(i);
      cv.notify_one();
    });
  });
  // Requests still unobserved after a minute are charged as failures.
  (void)loop.WaitAll(60.0);
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  DrainOrExit(manager);

  OpenLoopRun out;
  out.latency = loop.Latency();
  std::vector<double> p50s, p90s, p99s;
  for (const Summary& w : loop.LatencyWindows(kLatencyWindowS)) {
    p50s.push_back(w.median);
    p90s.push_back(w.p90);
    p99s.push_back(w.p99);
  }
  out.windows = p50s.size();
  out.best_window_p50 = BestDecile(p50s, /*lower_is_better=*/true);
  out.window_p50 = Median(p50s);
  out.window_p90 = Median(p90s);
  out.window_p99 = Median(p99s);
  out.lateness = loop.Lateness();
  out.attempted = n;
  out.mismatches = mismatches.load();
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = records[i];
    if (!loop.Ok(i)) continue;
    ++out.succeeded;
    const double intended = loop.Intended(i), sent = loop.Sent(i);
    out.late.push_back(sent - intended);
    out.submit.push_back(r.submitted - sent);
    out.roundtrip.push_back(r.resolved - r.submitted);
    out.control.push_back(r.resolved - r.submitted - r.deser - r.exec);
    out.deser.push_back(r.deser);
    out.exec.push_back(r.exec);
    out.wake.push_back(loop.Finished(i) - r.resolved);
    out.e2e.push_back(loop.Finished(i) - intended);
  }
  return out;
}

/// One set-up + measured section; returns the backlog throughput.
double Measure(const RunConfig& config, const serde::FunctionRegistry& registry,
               const std::string& tag, const Blob& shared_data, bool traced,
               double seconds, std::vector<double>& setups, Report& report) {
  Setup setup;
  if (!SetUpRepeatedly(traced, setup, setups, report, [&] {
        return SetUp(registry, traced, tag, shared_data);
      }))
    return 0.0;
  TcpCluster* cluster = setup.cluster.get();
  core::Manager& manager = cluster->manager();
  const LayerBaseline base = BeginMeasured(*cluster);
  const OpenLoopRun open = RunOpenLoop(manager, config.seed, seconds * 0.5, tag);
  // The manager's own round-trip histogram, open-loop phase only (the
  // backlog phase's round trips are mostly queueing).
  const auto open_snap = cluster->telemetry().metrics.Snapshot();
  const auto* open_rt = open_snap.HistogramFor("manager.invocation_roundtrip_s");
  report.Phase(traced ? "open-loop/traced" : "open-loop", open.attempted,
               open.succeeded, open.attempted - open.succeeded, open.mismatches);
  const std::vector<Request> backlog_requests =
      MakeRequests(config.seed + 1, kBacklogPool);
  ClosedLoopResult backlog = RunClosedLoop(
      manager, kBacklogWindow, seconds * 0.5, /*keep_latency=*/false,
      [&](std::size_t i) {
        return manager.SubmitCall(
            "l3", "l3_affine",
            Args(backlog_requests[i % backlog_requests.size()], tag));
      },
      [&](std::size_t i, const core::Outcome& outcome) {
        const Request& r = backlog_requests[i % backlog_requests.size()];
        return outcome.value.type() == Value::Type::kInt &&
               outcome.value.AsInt() == Affine(r.x, r.k, tag.size());
      });
  report.Phase(traced ? "backlog/traced" : "backlog", backlog.attempted,
               backlog.succeeded, backlog.failed, backlog.mismatches);
  std::size_t slices = 0;
  const double sat_per_s = backlog.SlicedRate(&slices);
  const double best_per_s =
      BestDecile(backlog.SliceRates(), /*lower_is_better=*/false);
  const double best_cpu_s =
      BestDecile(backlog.SliceCpuSPerOp(), /*lower_is_better=*/true);

  std::printf("l3-open%s: open loop at %.0f/s: latency %s; generator late %s\n",
              traced ? " (traced)" : "", kOpenLoopRate,
              open.latency.Format("ms", 1e3).c_str(),
              open.lateness.Format("ms", 1e3).c_str());
  std::printf("l3-open%s: per %g s window (median of %zu): p50 %.4f ms, "
              "p99 %.4f ms; best decile p50 %.4f ms\n",
              traced ? " (traced)" : "", kLatencyWindowS, open.windows,
              open.window_p50 * 1e3, open.window_p99 * 1e3,
              open.best_window_p50 * 1e3);
  std::printf("l3-open%s: backlog of %zu: %.0f calls/s (median of %zu slices), "
              "best decile %.0f calls/s; CPU per call %.2f us, best decile "
              "%.2f us\n",
              traced ? " (traced)" : "", kBacklogWindow, sat_per_s, slices,
              best_per_s, backlog.CpuSPerOp() * 1e6, best_cpu_s * 1e6);
  if (!traced) {
    report.Set("sat_inv_per_s", sat_per_s, "1/s", slices);
    report.Set("inv_per_s", best_per_s, "1/s", slices);
    report.Set("cpu_us_per_inv", best_cpu_s * 1e6, "us", backlog.succeeded);
    report.Set("lat_p50_ms", open.best_window_p50 * 1e3, "ms", open.latency.samples);
    report.Set("lat_p99_ms", open.window_p99 * 1e3, "ms", open.latency.samples);
    report.Set("lat_p90_ms", open.window_p90 * 1e3, "ms", open.latency.samples);
    return sat_per_s;
  }

  LayerInputs in;
  in.ops = open.succeeded + backlog.succeeded;
  in.submit_s = open.submit;
  in.submit_s.insert(in.submit_s.end(), backlog.submit_s.begin(),
                     backlog.submit_s.end());
  in.deserialize_s = open.deser;
  in.broadcast_s = setup.broadcast_s;
  {
    core::RunInvocationMsg call;
    call.id = 1;
    call.instance_id = 1;
    call.function_name = "l3_affine";
    call.args = Args({123456789, 42}, tag).ToBlob();
    core::InvocationDoneMsg done;
    done.id = 1;
    done.ok = true;
    done.result = Value(Affine(123456789, 42, tag.size())).ToBlob();
    in.replay = {call, done};
  }
  ReportLayers(*cluster, base, in, report);
  report.Set("gen.late_p99_ms", open.lateness.p99 * 1e3, "ms", open.lateness.samples);
  report.Set("manager.roundtrip_ms_p50",
             open_rt && open_rt->count ? open_rt->Quantile(0.5) * 1e3 : 0.0,
             "ms", open_rt ? open_rt->count : 0);

  // Latency ledger: e2e = generator lateness + SubmitCall + manager round
  // trip (control+wire, deserialize, exec) + future wake-up.  Medians of
  // the parts need not add up to the median of the whole; the difference
  // is printed as the residual.
  const double late = Median(open.late), submit = Median(open.submit),
               control = Median(open.control), deser = Median(open.deser),
               exec = Median(open.exec), wake = Median(open.wake),
               e2e = Median(open.e2e);
  const double residual = e2e - (late + submit + control + deser + exec + wake);
  const std::size_t n = open.e2e.size();
  report.Set("ledger.gen_late_ms", late * 1e3, "ms", n);
  report.Set("ledger.submit_ms", submit * 1e3, "ms", n);
  report.Set("ledger.control_wire_ms", control * 1e3, "ms", n);
  report.Set("ledger.deserialize_ms", deser * 1e3, "ms", n);
  report.Set("ledger.exec_ms", exec * 1e3, "ms", n);
  report.Set("ledger.wake_ms", wake * 1e3, "ms", n);
  report.Set("ledger.e2e_ms", e2e * 1e3, "ms", n);
  report.Set("ledger.residual_ms", residual * 1e3, "ms", n);
  std::printf(
      "latency ledger (medians, ms, n=%zu): e2e %.4f = gen late %.4f + "
      "SubmitCall %.4f + [round trip %.4f: control+wire %.4f + deserialize "
      "%.4f + exec %.4f] + wake-up %.4f + residual %.4f\n",
      n, e2e * 1e3, late * 1e3, submit * 1e3, Median(open.roundtrip) * 1e3,
      control * 1e3, deser * 1e3, exec * 1e3, wake * 1e3, residual * 1e3);
  return sat_per_s;
}

}  // namespace

void RunL3Open(const RunConfig& config, Report& report) {
  serde::FunctionRegistry registry;
  RegisterFunctions(registry);
  const std::string tag(kTagBytes, 't');
  const Blob shared_data = MakeSharedData();
  RunSections(config, report,
              [&](bool traced, double seconds, std::vector<double>& setups) {
                return Measure(config, registry, tag, shared_data, traced,
                               seconds, setups, report);
              });
}

}  // namespace perfbench
