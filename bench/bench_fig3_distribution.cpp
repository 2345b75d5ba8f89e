// Figure 3 ablation: the three context-distribution topologies, plus the
// chunk-level pipelined (cut-through) refinement of the spanning tree.
//
// Part 1 sweeps worker count and per-worker fan-out cap N, reporting the
// broadcast makespan of a 572 MB context over 10 GbE (0.46 s per hop) under
// (a) manager-sequential, (b) peer spanning tree, (c) clustered (slow
// inter-cluster link).  This is the design-choice study behind §2.2.2/§3.3.
//
// Part 2 sweeps the pipelined broadcast's chunk size and fan-out cap,
// cross-checking the pure planner's analytic makespan against the DES
// simulator's distribution makespan (SimResult::env_last_transfer_done_s),
// and replays a scaled-down broadcast on the real in-process runtime to
// confirm the cut-through ordering (deep workers receive chunks while
// shallow workers are still assembling).
//
// `--smoke` shrinks the real-runtime replay for CI; the analytic and
// simulated numbers are identical in both modes and are gated against
// bench/fig3_baseline.json by scripts/compare_bench.py.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/cluster.hpp"
#include "core/manager.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "storage/broadcast.hpp"

namespace {

using namespace vinelet;

constexpr double kBlobBytes = 572.0 * 1024 * 1024;
constexpr double kWorkerLinkBps = 1.25e9;  // 10 GbE
constexpr std::size_t kSweepWorkers = 64;
constexpr unsigned kSweepFanout = 3;

std::string HumanBytes(std::uint64_t bytes) {
  if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0)
    return std::to_string(bytes >> 20) + " MB";
  if (bytes >= (1ull << 10) && bytes % (1ull << 10) == 0)
    return std::to_string(bytes >> 10) + " KB";
  return std::to_string(bytes) + " B";
}

/// Analytic makespan of the pipelined plan for the standard sweep cluster.
double AnalyticPipelinedS(std::size_t workers, unsigned fanout,
                          std::uint64_t chunk_bytes) {
  storage::BroadcastParams params{storage::BroadcastMode::kSpanningTree,
                                  workers, fanout, 2};
  storage::ChunkParams chunks{static_cast<std::uint64_t>(kBlobBytes),
                              chunk_bytes};
  auto plan = storage::PlanPipelinedBroadcast(params, chunks);
  return storage::EstimatePipelinedMakespan(*plan, chunks, kWorkerLinkBps,
                                            3 * kWorkerLinkBps);
}

/// Runs the DES simulator with the distribution-focused LNNI configuration
/// (negligible manager costs, no exec noise) and returns the virtual time
/// when the last environment transfer completed.  `chunk_bytes` 0 = whole
/// blob store-and-forward.
double SimDistributionS(std::size_t workers, unsigned fanout,
                        std::uint64_t chunk_bytes) {
  sim::WorkloadCosts costs = sim::LnniCosts(16);
  costs.manager_l2 = {1e-6, 1e-6};
  costs.exec_noise_sigma = 0.0;
  costs.straggler_prob = 0.0;
  costs.unpack_cpu_s = 0.1;
  sim::SimConfig config;
  config.level = core::ReuseLevel::kL2;
  config.cluster.num_workers = workers;
  config.cluster.manager_link_Bps = 3 * config.cluster.worker_link_Bps;
  config.env_fanout = fanout;
  config.env_chunk_bytes = chunk_bytes;
  std::vector<sim::InvocationSpec> specs(
      4 * workers, sim::InvocationSpec{&costs, 1.0, 0, 0.0});
  return sim::VineSim(config, std::move(specs)).Run().env_last_transfer_done_s;
}

/// One real-runtime broadcast: manager + factory over the in-process
/// network, chunked at `chunk_bytes` (pass the blob size for whole-blob
/// store-and-forward).  Reports wall time, transfer accounting, and the
/// cut-through signature extracted from the per-chunk telemetry spans: how
/// many workers finished assembling inside the deepest worker's own receive
/// window (strictly 0 for store-and-forward, most of the tree when chunks
/// flow cut-through).
struct RealRun {
  bool ok = false;
  double wall_ms = 0;
  std::uint64_t manager_transfers = 0;
  std::uint64_t chunks_relayed = 0;
  std::size_t overlapped_workers = 0;
};

RealRun RunRealBroadcast(std::size_t workers, std::size_t blob_bytes,
                         std::uint64_t chunk_bytes, unsigned fanout) {
  RealRun out;
  telemetry::Telemetry telemetry;
  telemetry.tracer.SetEnabled(true);

  core::ManagerConfig manager_config;
  manager_config.telemetry = &telemetry;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = workers;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        factory_config);
  if (!cluster.Start().ok()) return out;
  core::Manager& manager = cluster.manager();

  std::string text(blob_bytes, '\0');
  for (std::size_t i = 0; i < text.size(); ++i)
    text[i] = static_cast<char>('A' + (i * 37 + i / 409) % 53);
  const Blob data = Blob::FromString(std::move(text));
  const storage::FileDecl decl =
      manager.DeclareBlob("env-tarball", data, storage::FileKind::kData, true);

  const auto t0 = std::chrono::steady_clock::now();
  auto outcome = manager.BroadcastFile(decl, chunk_bytes, fanout)->Wait();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  out.ok = outcome.ok();
  out.manager_transfers = manager.metrics().manager_transfers;
  out.chunks_relayed =
      telemetry.metrics.GetCounter("worker.chunks_relayed").Value();

  // Per-worker chunk receive windows from the telemetry spans.
  std::map<std::string, std::pair<double, double>> windows;  // {first, last}
  for (const telemetry::SpanRecord& span : telemetry.tracer.Drain()) {
    if (span.category != "chunk") continue;
    auto [it, fresh] =
        windows.emplace(span.track, std::make_pair(span.start_s, span.end_s));
    if (!fresh) {
      it->second.first = std::min(it->second.first, span.start_s);
      it->second.second = std::max(it->second.second, span.end_s);
    }
  }
  double deep_first = 0, deep_last = 0;
  for (const auto& [track, window] : windows) {
    if (window.second > deep_last) {
      deep_first = window.first;
      deep_last = window.second;
    }
  }
  for (const auto& [track, window] : windows) {
    if (window.second >= deep_last) continue;  // the deepest worker itself
    if (window.second > deep_first) ++out.overlapped_workers;
  }

  cluster.Stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vinelet;
  using namespace vinelet::storage;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("Ablation of Figure 3: context-distribution topologies "
              "(572 MB context, 10 GbE => 0.46 s per transfer)%s\n",
              smoke ? " [smoke]" : "");

  const double transfer_s = kBlobBytes / kWorkerLinkBps;
  bench::JsonReport report("fig3_distribution");

  bench::Section("Makespan vs worker count (fan-out N = 3)");
  {
    bench::Table table({"Workers", "(a) Sequential (s)",
                        "(b) Spanning tree (s)",
                        "(c) Clustered x2 (s)", "Tree speedup"});
    for (std::size_t workers : {10, 25, 50, 100, 150, 300}) {
      BroadcastParams seq{BroadcastMode::kSequential, workers, 3, 2};
      BroadcastParams tree{BroadcastMode::kSpanningTree, workers, 3, 2};
      BroadcastParams clustered{BroadcastMode::kClustered, workers, 3, 2};
      const double t_seq =
          EstimateMakespan(*PlanBroadcast(seq), seq, transfer_s);
      const double t_tree =
          EstimateMakespan(*PlanBroadcast(tree), tree, transfer_s);
      const double t_clustered =
          EstimateMakespan(*PlanBroadcast(clustered), clustered, transfer_s);
      table.AddRow({std::to_string(workers), FormatDouble(t_seq, 1),
                    FormatDouble(t_tree, 2), FormatDouble(t_clustered, 2),
                    FormatDouble(t_seq / t_tree, 1) + "x"});
    }
    table.Print();
  }

  bench::Section("Makespan vs fan-out cap N (150 workers, spanning tree)");
  {
    bench::Table table({"Fan-out N", "Rounds", "Makespan (s)"});
    for (unsigned fanout : {1, 2, 3, 4, 8, 16}) {
      BroadcastParams params{BroadcastMode::kSpanningTree, 150, fanout, 2};
      auto plan = PlanBroadcast(params);
      table.AddRow({std::to_string(fanout), std::to_string(plan->rounds),
                    FormatDouble(EstimateMakespan(*plan, params, transfer_s),
                                 2)});
    }
    table.Print();
    std::printf("Design note (§3.3): the cap exists to avoid creating a "
                "sink; N=3-4 already gets within a round of the optimum "
                "while bounding per-worker upload load.\n");
  }

  bench::Section("Clustered mode vs inter-cluster slowdown (150 workers)");
  {
    bench::Table table({"Inter-cluster slowdown", "Clustered (s)",
                        "Flat tree (s)"});
    BroadcastParams clustered{BroadcastMode::kClustered, 150, 3, 2};
    BroadcastParams tree{BroadcastMode::kSpanningTree, 150, 3, 2};
    auto clustered_plan = PlanBroadcast(clustered);
    // A cluster-oblivious tree evaluated on the same clustered network:
    // reuse the flat tree's schedule but charge its cross-cluster edges.
    auto oblivious_plan = PlanBroadcast(tree);
    oblivious_plan->mode = BroadcastMode::kClustered;
    for (double slowdown : {1.0, 2.0, 4.0, 8.0}) {
      table.AddRow(
          {FormatDouble(slowdown, 0) + "x",
           FormatDouble(EstimateMakespan(*clustered_plan, clustered,
                                         transfer_s, slowdown),
                        2),
           FormatDouble(EstimateMakespan(*oblivious_plan, clustered,
                                         transfer_s, slowdown),
                        2)});
    }
    table.Print();
    std::printf("Shape check: with a slow inter-cluster link, seeding each "
                "cluster once and broadcasting internally beats a flat "
                "tree's many cross-cluster hops.\n");
  }

  // -------------------------------------------------------------------------
  // Pipelined (cut-through) chunked broadcast: planner vs DES simulator.
  // Store-and-forward costs depth x blob_time; cut-through approaches
  // blob_time + depth x chunk_time.  The whole-blob sim baseline uses the
  // same cluster (manager on a 3x link, so each of the 3 roots is fed at
  // full worker line rate, matching the analytic model's root edges).
  // -------------------------------------------------------------------------
  const double whole_sim_s = SimDistributionS(kSweepWorkers, kSweepFanout, 0);

  bench::Section("Pipelined chunk-size sweep (64 workers, fan-out 3, "
                 "572 MB; sim vs analytic)");
  {
    bench::Table table({"Chunk", "Chunks", "Analytic (s)", "Sim (s)",
                        "Sim/Analytic", "Speedup vs whole-blob (sim)"});
    table.AddRow({"whole blob", "1", "-", FormatDouble(whole_sim_s, 2), "-",
                  "1.0x"});
    for (std::uint64_t chunk : {64ull << 20, 16ull << 20, 4ull << 20,
                                1ull << 20}) {
      const ChunkParams chunks{static_cast<std::uint64_t>(kBlobBytes), chunk};
      const double analytic_s =
          AnalyticPipelinedS(kSweepWorkers, kSweepFanout, chunk);
      const double sim_s = SimDistributionS(kSweepWorkers, kSweepFanout, chunk);
      table.AddRow({HumanBytes(chunk), std::to_string(ChunkCount(chunks)),
                    FormatDouble(analytic_s, 2), FormatDouble(sim_s, 2),
                    FormatDouble(sim_s / analytic_s, 3),
                    FormatDouble(whole_sim_s / sim_s, 2) + "x"});
      if (chunk == kDefaultChunkBytes) {
        report.AddMeasured("pipelined_analytic_makespan_s", analytic_s);
        report.AddMeasured("pipelined_sim_makespan_s", sim_s);
        report.AddMeasured("whole_blob_sim_makespan_s", whole_sim_s);
        report.AddMeasured("sim_over_analytic", sim_s / analytic_s);
        report.AddMeasured("whole_over_pipelined", whole_sim_s / sim_s);
      }
    }
    table.Print();
    std::printf("The default 4 MB chunk already sits on the flat part of "
                "the curve: makespan ~= blob_time + depth x chunk_time, so "
                "shrinking chunks further buys microseconds while "
                "multiplying per-chunk message overhead.\n");
  }

  bench::Section("Pipelined fan-out sweep (64 workers, 4 MB chunks)");
  {
    bench::Table table({"Fan-out N", "Tree depth", "Analytic (s)", "Sim (s)",
                        "Sim/Analytic"});
    for (unsigned fanout : {1u, 2u, 3u, 4u, 8u}) {
      BroadcastParams params{BroadcastMode::kSpanningTree, kSweepWorkers,
                             fanout, 2};
      const ChunkParams chunks{static_cast<std::uint64_t>(kBlobBytes),
                               kDefaultChunkBytes};
      auto plan = PlanPipelinedBroadcast(params, chunks);
      const double analytic_s =
          AnalyticPipelinedS(kSweepWorkers, fanout, kDefaultChunkBytes);
      const double sim_s =
          SimDistributionS(kSweepWorkers, fanout, kDefaultChunkBytes);
      table.AddRow({std::to_string(fanout), std::to_string(plan->depth),
                    FormatDouble(analytic_s, 2), FormatDouble(sim_s, 2),
                    FormatDouble(sim_s / analytic_s, 3)});
    }
    table.Print();
    std::printf("With cut-through relay the depth term costs chunks, not "
                "blobs, so even deep low-fan-out trees stay close to "
                "blob_time — the fan-out cap can stay small (bounded upload "
                "load) at almost no makespan cost.\n");
  }

  // -------------------------------------------------------------------------
  // Real runtime replay, scaled down: the in-process network has no
  // bandwidth model, so wall time is not the point — the ordering is.
  // Cut-through means deep workers receive chunks while shallow workers are
  // still assembling; store-and-forward never overlaps.
  // -------------------------------------------------------------------------
  bench::Section(smoke ? "Real runtime replay (8 workers, 2 MB blob)"
                       : "Real runtime replay (12 workers, 8 MB blob)");
  {
    const std::size_t workers = smoke ? 8 : 12;
    const std::size_t blob_bytes = smoke ? (2u << 20) : (8u << 20);
    const std::uint64_t chunk_bytes = smoke ? (64u << 10) : (128u << 10);
    const RealRun whole =
        RunRealBroadcast(workers, blob_bytes, blob_bytes, /*fanout=*/2);
    const RealRun pipelined =
        RunRealBroadcast(workers, blob_bytes, chunk_bytes, /*fanout=*/2);
    bench::Table table({"Mode", "Wall (ms)", "Manager sends",
                        "Peer chunk relays", "Workers overlapping deepest"});
    table.AddRow({"whole blob (store-and-forward)",
                  FormatDouble(whole.wall_ms, 1),
                  std::to_string(whole.manager_transfers),
                  std::to_string(whole.chunks_relayed),
                  std::to_string(whole.overlapped_workers)});
    table.AddRow({"pipelined " + HumanBytes(chunk_bytes) + " chunks",
                  FormatDouble(pipelined.wall_ms, 1),
                  std::to_string(pipelined.manager_transfers),
                  std::to_string(pipelined.chunks_relayed),
                  std::to_string(pipelined.overlapped_workers)});
    table.Print();
    if (!whole.ok || !pipelined.ok) {
      std::printf("ERROR: real-runtime broadcast failed\n");
      return 1;
    }
    // The verdict follows the counts; it is printed, not gated (wall-clock
    // overlap on a shared host is too noisy to fail a run on).
    const char* verdict =
        pipelined.overlapped_workers > whole.overlapped_workers
            ? "the runtime exhibits the cut-through schedule, not "
              "sequential hops"
            : pipelined.overlapped_workers == 0
                  ? "pipelining overlapped no workers, so this run does not show "
                    "the cut-through schedule"
                  : "pipelining overlapped no more workers than "
                    "store-and-forward, so this run does not tell the two "
                    "schedules apart";
    std::printf("Ordering check: %zu of %zu workers completed inside the "
                "deepest worker's receive window under pipelining "
                "(store-and-forward: %zu) — %s.  Both modes fed only the "
                "fan-out roots from the manager.\n",
                pipelined.overlapped_workers, workers - 1,
                whole.overlapped_workers, verdict);
    report.AddMeasured("real_pipelined_overlapped_workers",
                       static_cast<double>(pipelined.overlapped_workers));
    report.AddMeasured("real_whole_blob_overlapped_workers",
                       static_cast<double>(whole.overlapped_workers));
  }

  report.Write();
  return 0;
}
