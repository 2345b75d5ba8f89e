// VineSim: the cluster-scale simulated runtime.  Verifies the qualitative
// results the paper reports — L3 < L2 < L1 execution time, per-invocation
// run-time ordering, environment transfer counts, library dynamics, worker
// scaling, churn recovery — plus bit-level determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "hash/content_id.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "storage/broadcast.hpp"

namespace vinelet::sim {
namespace {

SimConfig SmallConfig(core::ReuseLevel level, std::size_t workers = 10) {
  SimConfig config;
  config.level = level;
  config.cluster.num_workers = workers;
  config.seed = 42;
  return config;
}

TEST(VineSimTest, AllInvocationsComplete) {
  const WorkloadCosts costs = LnniCosts(16);
  VineSim sim(SmallConfig(core::ReuseLevel::kL3),
              BuildLnniWorkload(costs, 500));
  const SimResult result = sim.Run();
  EXPECT_EQ(result.invocations_completed, 500u);
  EXPECT_EQ(result.run_time.count(), 500u);
  EXPECT_GT(result.makespan, 0.0);
}

TEST(VineSimTest, LevelsOrderedL3FastestL1Slowest) {
  // Enough invocations (and workers) that L3's one-time library rollout is
  // amortized, as in every paper experiment.
  const WorkloadCosts costs = LnniCosts(16);
  double makespans[3];
  for (int i = 0; i < 3; ++i) {
    const auto level = static_cast<core::ReuseLevel>(i + 1);
    VineSim sim(SmallConfig(level, 30), BuildLnniWorkload(costs, 5000));
    makespans[i] = sim.Run().makespan;
  }
  EXPECT_GT(makespans[0], makespans[1]) << "L1 must be slower than L2";
  EXPECT_GT(makespans[1], makespans[2]) << "L2 must be slower than L3";
  // Fig 6a shape: the L1/L3 gap is large.
  EXPECT_GT(makespans[0] / makespans[2], 4.0);
}

TEST(VineSimTest, RunTimeMeansOrderedAcrossLevels) {
  const WorkloadCosts costs = LnniCosts(16);
  double means[3];
  for (int i = 0; i < 3; ++i) {
    const auto level = static_cast<core::ReuseLevel>(i + 1);
    VineSim sim(SmallConfig(level, 30), BuildLnniWorkload(costs, 5000));
    means[i] = sim.Run().run_time.mean();
  }
  // Table 4 shape: L1 mean > L2 mean > L3 mean.
  EXPECT_GT(means[0], means[1]);
  EXPECT_GT(means[1], means[2]);
}

TEST(VineSimTest, DeterministicAcrossRuns) {
  const WorkloadCosts costs = LnniCosts(16);
  SimResult a = VineSim(SmallConfig(core::ReuseLevel::kL3),
                        BuildLnniWorkload(costs, 300))
                    .Run();
  SimResult b = VineSim(SmallConfig(core::ReuseLevel::kL3),
                        BuildLnniWorkload(costs, 300))
                    .Run();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.run_times.size(), b.run_times.size());
  for (std::size_t i = 0; i < a.run_times.size(); ++i)
    EXPECT_DOUBLE_EQ(a.run_times[i], b.run_times[i]);
}

TEST(VineSimTest, DifferentSeedsDiffer) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config_a = SmallConfig(core::ReuseLevel::kL2);
  SimConfig config_b = config_a;
  config_b.seed = 43;
  SimResult a = VineSim(config_a, BuildLnniWorkload(costs, 300)).Run();
  SimResult b = VineSim(config_b, BuildLnniWorkload(costs, 300)).Run();
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(VineSimTest, L2FetchesEnvironmentOncePerWorker) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config = SmallConfig(core::ReuseLevel::kL2, 8);
  config.peer_transfers = false;
  VineSim sim(config, BuildLnniWorkload(costs, 400));
  const SimResult result = sim.Run();
  EXPECT_EQ(result.env_manager_transfers, 8u);  // exactly one per worker
  EXPECT_EQ(result.env_peer_transfers, 0u);
}

TEST(VineSimTest, TasksLandWhereTheRuntimePlacesThem) {
  // Fewer L1/L2 tasks than one worker's slots: every one runs on the
  // worker the Manager's placement picks for the function's key.  The DES
  // names library i "lib%06zu" and keys its tasks by that name.
  const WorkloadCosts costs = LnniCosts(16);
  const std::uint32_t slots =
      SimConfig{}.cluster.cores_per_worker / costs.cores_per_invocation;
  for (const auto level : {core::ReuseLevel::kL1, core::ReuseLevel::kL2}) {
    SimConfig config = SmallConfig(level, 10);
    config.track_trace = true;
    const SimResult result =
        VineSim(config, BuildLnniWorkload(costs, slots - 1)).Run();
    ASSERT_EQ(result.trace.size(), slots - 1);

    core::ControlCore runtime;
    for (core::WorkerId w = 1; w <= 10; ++w)
      runtime.AddWorker(w, core::Resources{slots, 0, 0});
    runtime.SubmitTask(1, hash::ContentId::OfText("lib000000").Prefix64(),
                       core::Resources{1, 0, 0});
    const auto placed = runtime.Pump();
    ASSERT_EQ(placed.size(), 1u);
    std::set<std::size_t> workers;
    for (const InvocationTrace& t : result.trace) workers.insert(t.worker);
    EXPECT_EQ(workers, (std::set<std::size_t>{placed[0].worker - 1}));
  }
}

TEST(VineSimTest, PeerTransfersOffloadManagerLink) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config = SmallConfig(core::ReuseLevel::kL2, 12);
  config.peer_transfers = true;
  VineSim sim(config, BuildLnniWorkload(costs, 400));
  const SimResult result = sim.Run();
  // The first worker seeds from the manager; most of the rest go peer.
  EXPECT_GE(result.env_peer_transfers, 8u);
  EXPECT_LT(result.env_manager_transfers, 4u);
}

TEST(VineSimTest, L3DeploysOneLibraryPerSlot) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config = SmallConfig(core::ReuseLevel::kL3, 5);
  config.track_series = true;
  // 32 cores / 2 cores-per-invocation = 16 slots per worker.
  VineSim sim(config, BuildLnniWorkload(costs, 2000));
  const SimResult result = sim.Run();
  EXPECT_EQ(result.libraries_deployed_total, 5u * 16u);  // Fig 10 peak shape
  EXPECT_EQ(result.libraries_peak_active, 5u * 16u);
  // Share value grows to invocations / libraries (Fig 11 shape).
  ASSERT_FALSE(result.avg_share_value.empty());
  const double final_share = result.avg_share_value.points().back().value;
  EXPECT_NEAR(final_share, 2000.0 / 80.0, 1.0);
  // Share value is non-decreasing once all libraries are deployed.
  const auto& points = result.avg_share_value.points();
  for (std::size_t i = points.size() / 2; i + 1 < points.size(); ++i)
    EXPECT_LE(points[i].value, points[i + 1].value + 1e-9);
}

TEST(VineSimTest, LibrarySlotStrategyControlsInstanceCount) {
  // §3.5.2's two strategies: k one-slot libraries vs one k-slot library.
  const WorkloadCosts costs = LnniCosts(16);
  auto deployed = [&](std::uint32_t k) {
    SimConfig config = SmallConfig(core::ReuseLevel::kL3, 5);
    config.library_slots = k;
    VineSim sim(config, BuildLnniWorkload(costs, 1000));
    return sim.Run().libraries_deployed_total;
  };
  EXPECT_EQ(deployed(1), 5u * 16u);  // one instance per slot (Fig 10)
  EXPECT_EQ(deployed(16), 5u);       // one whole-worker instance each
  EXPECT_EQ(deployed(4), 5u * 4u);
}

TEST(VineSimTest, ControlCoreAuditCleanAfterL3Runs) {
  // The L3 configurations of this suite, churn and multi-slot libraries
  // included: once a run drains, the control core must be settled and
  // consistent (no queued or running call, no instance in transit, affinity
  // and per-worker claims equal to what the instance table implies).
  const WorkloadCosts costs = LnniCosts(16);
  struct Case {
    std::size_t workers;
    std::size_t invocations;
    std::uint32_t library_slots;
    double lifetime_s;
  };
  for (const Case& c : {Case{10, 500, 1, 0.0}, Case{5, 2000, 1, 0.0},
                        Case{5, 1000, 4, 0.0}, Case{5, 1000, 16, 0.0},
                        Case{4, 800, 16, 0.0}, Case{6, 1500, 1, 60.0},
                        Case{6, 1500, 4, 60.0}}) {
    SimConfig config = SmallConfig(core::ReuseLevel::kL3, c.workers);
    config.library_slots = c.library_slots;
    config.worker_mean_lifetime_s = c.lifetime_s;
    config.worker_respawn_delay_s = 5.0;
    VineSim sim(config, BuildLnniWorkload(costs, c.invocations));
    const SimResult result = sim.Run();
    ASSERT_EQ(result.invocations_completed, c.invocations);
    const auto audit = sim.control().Audit();
    EXPECT_TRUE(audit.violations.empty())
        << c.workers << " workers, " << c.library_slots << " slots: "
        << audit.violations.front();
    EXPECT_EQ(audit.warm, result.libraries_peak_active > 0 ? audit.active : 0u);
  }
}

TEST(VineSimTest, WholeWorkerLibrariesStillCompleteEverything) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config = SmallConfig(core::ReuseLevel::kL3, 4);
  config.library_slots = 16;
  VineSim sim(config, BuildLnniWorkload(costs, 800));
  const SimResult result = sim.Run();
  EXPECT_EQ(result.invocations_completed, 800u);
}

TEST(VineSimTest, MoreWorkersHelpL3OnlyUpToManagerBound) {
  // Fig 9 shape: L3 at 10 -> 25 workers improves a lot; 50 -> 150 barely.
  const WorkloadCosts costs = LnniCosts(16);
  auto run = [&](std::size_t workers) {
    VineSim sim(SmallConfig(core::ReuseLevel::kL3, workers),
                BuildLnniWorkload(costs, 10000));
    return sim.Run().makespan;
  };
  const double at10 = run(10);
  const double at25 = run(25);
  const double at50 = run(50);
  const double at150 = run(150);
  EXPECT_GT(at10 / at25, 1.8);   // compute-bound regime
  EXPECT_LT(at50 / at150, 1.7);  // manager-bound regime: little gain
}

TEST(VineSimTest, LongerInvocationsShrinkSpeedup) {
  // Fig 8 shape: the L1/L3 gap narrows as invocations run longer.
  const WorkloadCosts short_costs = LnniCosts(16);
  const WorkloadCosts long_costs = LnniCosts(1600);
  auto gap = [&](const WorkloadCosts& costs) {
    const double l1 =
        VineSim(SmallConfig(core::ReuseLevel::kL1, 40),
                BuildLnniWorkload(costs, 3000))
            .Run()
            .makespan;
    const double l3 =
        VineSim(SmallConfig(core::ReuseLevel::kL3, 40),
                BuildLnniWorkload(costs, 3000))
            .Run()
            .makespan;
    return l1 / l3;
  };
  EXPECT_GT(gap(short_costs), gap(long_costs) * 1.5);
}

TEST(VineSimTest, WorkerChurnStillCompletesEverything) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config = SmallConfig(core::ReuseLevel::kL3, 6);
  config.worker_mean_lifetime_s = 60.0;
  config.worker_respawn_delay_s = 5.0;
  config.track_series = true;
  VineSim sim(config, BuildLnniWorkload(costs, 1500));
  const SimResult result = sim.Run();
  EXPECT_EQ(result.invocations_completed, 1500u);
  EXPECT_GT(result.worker_deaths, 0u);
  // Churn forces redeployments: cumulative > one per slot (Fig 10's
  // "deployed libraries keep growing").
  EXPECT_GT(result.libraries_deployed_total, 6u * 16u);
}

TEST(VineSimTest, ManagerUtilizationHighAtL1LowAtL3) {
  const WorkloadCosts costs = LnniCosts(16);
  const SimResult l1 = VineSim(SmallConfig(core::ReuseLevel::kL1, 30),
                               BuildLnniWorkload(costs, 5000))
                           .Run();
  const SimResult l3 = VineSim(SmallConfig(core::ReuseLevel::kL3, 30),
                               BuildLnniWorkload(costs, 5000))
                           .Run();
  // The paper's Q3 story: stateless dispatch saturates the manager.
  EXPECT_GT(l1.manager_utilization, 0.8);
  EXPECT_LT(l3.manager_utilization, 0.6);
  EXPECT_GT(l1.manager_utilization, l3.manager_utilization * 2.0);
}

TEST(VineSimTest, ExamolMixRunsAllClasses) {
  const WorkloadCosts simulate = ExamolSimulateCosts();
  const WorkloadCosts train = ExamolTrainCosts();
  const WorkloadCosts infer = ExamolInferCosts();
  Rng rng(7);
  auto workload = BuildExamolWorkload(simulate, train, infer, 300, rng);
  ASSERT_EQ(workload.size(), 300u);
  int classes[3] = {0, 0, 0};
  for (const auto& spec : workload) {
    if (spec.costs == &simulate) ++classes[0];
    if (spec.costs == &train) ++classes[1];
    if (spec.costs == &infer) ++classes[2];
  }
  EXPECT_GT(classes[0], classes[1]);  // simulations dominate
  EXPECT_GT(classes[1], 0);
  EXPECT_GT(classes[2], 0);

  SimConfig config = SmallConfig(core::ReuseLevel::kL2, 10);
  VineSim sim(config, workload);
  const SimResult result = sim.Run();
  EXPECT_EQ(result.invocations_completed, 300u);
}

TEST(VineSimTest, ExamolL2BeatsL1) {
  const WorkloadCosts simulate = ExamolSimulateCosts();
  const WorkloadCosts train = ExamolTrainCosts();
  const WorkloadCosts infer = ExamolInferCosts();
  Rng rng_a(7), rng_b(7);
  auto wl_a = BuildExamolWorkload(simulate, train, infer, 400, rng_a);
  auto wl_b = BuildExamolWorkload(simulate, train, infer, 400, rng_b);
  const double l1 =
      VineSim(SmallConfig(core::ReuseLevel::kL1, 15), wl_a).Run().makespan;
  const double l2 =
      VineSim(SmallConfig(core::ReuseLevel::kL2, 15), wl_b).Run().makespan;
  // Fig 6b shape: L2 wins, but by a moderate factor (tasks are long).
  EXPECT_GT(l1, l2);
  EXPECT_LT(l1 / l2, 4.0);
}

TEST(VineSimTest, HistogramShiftsLeftWithReuse) {
  // Fig 7 shape: the run-time distribution moves left from L1 to L3.
  const WorkloadCosts costs = LnniCosts(16);
  auto percentile90 = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() * 9 / 10];
  };
  const auto l1 = VineSim(SmallConfig(core::ReuseLevel::kL1, 15),
                          BuildLnniWorkload(costs, 4000))
                      .Run();
  const auto l3 = VineSim(SmallConfig(core::ReuseLevel::kL3, 15),
                          BuildLnniWorkload(costs, 4000))
                      .Run();
  EXPECT_GT(percentile90(l1.run_times), percentile90(l3.run_times) * 1.5);
}

TEST(VineSimTest, TraceRecordsEveryInvocationConsistently) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config = SmallConfig(core::ReuseLevel::kL2, 5);
  config.track_trace = true;
  VineSim sim(config, BuildLnniWorkload(costs, 300));
  const SimResult result = sim.Run();
  ASSERT_EQ(result.trace.size(), 300u);
  std::set<std::size_t> seen;
  for (const auto& t : result.trace) {
    EXPECT_LE(t.dispatched, t.started);
    EXPECT_LT(t.started, t.finished);
    EXPECT_LT(t.worker, 5u);
    seen.insert(t.invocation);
  }
  EXPECT_EQ(seen.size(), 300u);  // every invocation traced exactly once
  // Trace run times agree with the aggregate statistics.
  double sum = 0;
  for (const auto& t : result.trace) sum += t.finished - t.started;
  EXPECT_NEAR(sum / 300.0, result.run_time.mean(), 1e-9);
}

TEST(VineSimTest, TraceCsvWellFormed) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config = SmallConfig(core::ReuseLevel::kL3, 3);
  config.track_trace = true;
  VineSim sim(config, BuildLnniWorkload(costs, 50));
  const SimResult result = sim.Run();
  const std::string csv = TraceToCsv(result.trace);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 51);  // header + rows
  EXPECT_EQ(csv.rfind("invocation,worker,group", 0), 0u);
}

TEST(VineSimTest, TracePhaseColumnsFilled) {
  const WorkloadCosts costs = LnniCosts(16);
  for (auto level : {core::ReuseLevel::kL1, core::ReuseLevel::kL2,
                     core::ReuseLevel::kL3}) {
    SimConfig config = SmallConfig(level, 3);
    config.track_trace = true;
    VineSim sim(config, BuildLnniWorkload(costs, 50));
    const SimResult result = sim.Run();
    ASSERT_EQ(result.trace.size(), 50u);
    for (const auto& t : result.trace) {
      EXPECT_EQ(t.level, static_cast<int>(level));
      EXPECT_GE(t.transfer_s, 0.0);
      EXPECT_GE(t.unpack_s, 0.0);
      EXPECT_GE(t.setup_s, 0.0);
      // Every level executes the function body.
      EXPECT_GT(t.exec_s, 0.0);
      // The phases fit inside the invocation's worker-side window.
      EXPECT_LE(t.setup_s + t.exec_s, (t.finished - t.started) + 1e-9);
    }
  }
  // The CSV carries the new columns on the same (stable-prefix) header.
  SimConfig config = SmallConfig(core::ReuseLevel::kL2, 3);
  config.track_trace = true;
  VineSim sim(config, BuildLnniWorkload(costs, 10));
  const std::string csv = TraceToCsv(sim.Run().trace);
  EXPECT_EQ(csv.rfind("invocation,worker,group,dispatched,started,finished,"
                      "run_time,level,transfer_s,unpack_s,setup_s,exec_s\n",
                      0),
            0u);
}

TEST(VineSimTest, ChunkedEnvDistributionBeatsWholeBlobAndMatchesAnalytic) {
  // The Fig-3 pipelining claim, in simulation: same cluster, same workload,
  // the only difference is env_chunk_bytes.  Costs are stripped to the
  // transfer path (no noise, no stragglers, negligible dispatch) so the DES
  // distribution makespan is comparable to the analytic planner's.
  WorkloadCosts costs = LnniCosts(16);
  costs.manager_l2 = {1e-6, 1e-6};
  costs.exec_noise_sigma = 0.0;
  costs.straggler_prob = 0.0;
  costs.unpack_cpu_s = 0.1;  // excluded from the distribution makespan

  constexpr std::uint64_t kChunkBytes = 4ull << 20;
  SimConfig config;
  config.level = core::ReuseLevel::kL2;
  config.cluster.num_workers = 64;
  // Manager provisioned with fanout × worker bandwidth so each root edge of
  // the tree runs at full worker-link rate (the bench's Fig-3 setup).
  config.cluster.manager_link_Bps = 3 * config.cluster.worker_link_Bps;
  config.env_fanout = 3;

  config.env_chunk_bytes = 0;  // whole-blob store-and-forward
  const SimResult whole =
      VineSim(config, BuildLnniWorkload(costs, 256)).Run();
  config.env_chunk_bytes = kChunkBytes;  // pipelined cut-through
  const SimResult chunked =
      VineSim(config, BuildLnniWorkload(costs, 256)).Run();

  ASSERT_GT(whole.env_last_transfer_done_s, 0.0);
  ASSERT_GT(chunked.env_last_transfer_done_s, 0.0);
  // Acceptance gate: pipelining wins by at least 1.5× (expected ~3.9×: the
  // store-and-forward tree pays depth × blob_time, the pipeline pays
  // blob_time + depth × chunk_time).
  EXPECT_GE(whole.env_last_transfer_done_s / chunked.env_last_transfer_done_s,
            1.5);

  // Acceptance gate: DES and the pure planner agree within 10%.
  storage::BroadcastParams params;
  params.num_workers = config.cluster.num_workers;
  params.fanout_cap = config.env_fanout;
  const storage::ChunkParams chunk_params{
      static_cast<std::uint64_t>(costs.env_packed_bytes), kChunkBytes};
  auto plan = storage::PlanPipelinedBroadcast(params, chunk_params);
  ASSERT_TRUE(plan.ok());
  const double analytic = storage::EstimatePipelinedMakespan(
      *plan, chunk_params, config.cluster.worker_link_Bps,
      config.cluster.manager_link_Bps);
  EXPECT_NEAR(chunked.env_last_transfer_done_s / analytic, 1.0, 0.10);
  EXPECT_EQ(chunked.invocations_completed, 256u);
}

TEST(VineSimTest, StealThresholdChangesAnOpenZipfRun) {
  // More libraries than slots, arriving open-loop: a starved cold library
  // evicts an idle one, and the room it freed must go to it.  Then the
  // threshold (how much backlog a warm set tolerates before displacing
  // another library) shapes the run, and th=1 and th=4 must differ.
  const WorkloadCosts costs = LnniCosts(16);
  SimResult results[2];
  const std::size_t thresholds[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    SimConfig config = SmallConfig(core::ReuseLevel::kL3, 4);
    config.scheduler.steal_threshold = thresholds[i];
    Rng rng(7);
    results[i] = VineSim(config, BuildZipfWorkload(costs, 600, 64, 1.2, 0.2,
                                                   /*arrival_rate=*/12.0, rng))
                     .Run();
    ASSERT_EQ(results[i].invocations_completed, 600u);
    EXPECT_GT(results[i].autoscale_evicts, 0u);
  }
  const SimResult& th1 = results[0];
  const SimResult& th4 = results[1];
  // th=1 displaces at the first queued call per instance, th=4 tolerates a
  // backlog first: th=1 evicts well over twice as often, and under th=4
  // more calls find their library warm.  Handing the freed room to whichever
  // library sorts first instead leaves the runs one eviction apart.
  EXPECT_GT(th1.autoscale_evicts, 2 * th4.autoscale_evicts);
  EXPECT_GT(th4.affinity_hits, th1.affinity_hits);
  EXPECT_NE(th1.run_times, th4.run_times);
}

TEST(VineSimTest, EmptyWorkloadTerminates) {
  VineSim sim(SmallConfig(core::ReuseLevel::kL3), {});
  const SimResult result = sim.Run();
  EXPECT_EQ(result.invocations_completed, 0u);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
}

}  // namespace
}  // namespace vinelet::sim
