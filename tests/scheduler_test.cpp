// Context-affinity scheduling policy: the pure decision components shared
// by the live Manager and the DES (AffinityIndex, DecideAutoscale), plus a
// runtime-vs-simulator mirror check — the same demand trajectory must
// produce the same deploy decisions in both backends, because both call
// the same pure functions.
#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace vinelet::core {
namespace {

TEST(AffinityIndexTest, AddRemoveCounts) {
  AffinityIndex index;
  EXPECT_EQ(index.Get("lib"), nullptr);
  EXPECT_EQ(index.CountFor("lib"), 0u);

  index.Add("lib", 1);
  index.Add("lib", 2);
  index.Add("lib", 2);  // two instances on worker 2
  ASSERT_NE(index.Get("lib"), nullptr);
  EXPECT_EQ(index.Get("lib")->size(), 2u);
  EXPECT_EQ(index.CountFor("lib"), 3u);
  EXPECT_TRUE(index.Contains("lib", 1));
  EXPECT_TRUE(index.Contains("lib", 2));
  EXPECT_FALSE(index.Contains("lib", 3));

  // Counts, not booleans: the entry survives until the last instance
  // drains.
  index.Remove("lib", 2);
  EXPECT_TRUE(index.Contains("lib", 2));
  EXPECT_EQ(index.CountFor("lib"), 2u);
  index.Remove("lib", 2);
  EXPECT_FALSE(index.Contains("lib", 2));
  EXPECT_EQ(index.CountFor("lib"), 1u);

  // Removing the last entry erases the library's set entirely.
  index.Remove("lib", 1);
  EXPECT_EQ(index.Get("lib"), nullptr);
}

TEST(AffinityIndexTest, RemoveIsIdempotent) {
  AffinityIndex index;
  index.Remove("ghost", 5);  // absent library: no-op
  index.Add("lib", 1);
  index.Remove("lib", 9);  // absent worker: no-op
  EXPECT_EQ(index.CountFor("lib"), 1u);
}

TEST(AffinityIndexTest, RemoveWorkerSweepsEveryLibrary) {
  AffinityIndex index;
  index.Add("a", 1);
  index.Add("a", 2);
  index.Add("b", 2);
  index.Add("c", 3);
  index.RemoveWorker(2);
  EXPECT_TRUE(index.Contains("a", 1));
  EXPECT_FALSE(index.Contains("a", 2));
  EXPECT_EQ(index.Get("b"), nullptr);  // b's only worker died
  EXPECT_TRUE(index.Contains("c", 3));
  EXPECT_EQ(index.table().size(), 2u);
}

TEST(DecideAutoscaleTest, IdleLibraryBelowShareFloorIsEvictionVictim) {
  SchedulerConfig config;  // share_floor = 4.0
  AutoscaleSignal signal;
  signal.queue_depth = 0;
  signal.ready_instances = 2;
  signal.share_value = 1.5;
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kEvict);

  // A library that amortized its deploys is retained...
  signal.share_value = 8.0;
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kHold);
  // ...and one with nothing deployed has nothing to evict.
  signal.ready_instances = 0;
  signal.share_value = 0.0;
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kHold);
}

TEST(DecideAutoscaleTest, BacklogWithinUpcomingCapacityHolds) {
  SchedulerConfig config;
  AutoscaleSignal signal;
  signal.queue_depth = 5;
  signal.ready_instances = 1;
  signal.free_slots = 2;
  signal.pending_instances = 1;
  signal.pending_slots = 3;  // 2 free + 3 pending >= 5 queued
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kHold);
}

TEST(DecideAutoscaleTest, SpareRoomExpandsWithoutDisplacement) {
  // Uncommitted capacity somewhere in the cluster: expanding there evicts
  // nobody, so the only gate is the backlog outrunning capacity in flight.
  SchedulerConfig config;
  AutoscaleSignal signal;
  signal.queue_depth = 3;
  signal.ready_instances = 1;
  signal.free_slots = 0;
  signal.pending_slots = 0;
  signal.workers_with_room = 1;
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kDeploy);
}

TEST(DecideAutoscaleTest, DisplacingDeployGatedByStealThreshold) {
  // Fully committed cluster: a deploy must displace another library's warm
  // instance, so it waits until the backlog exceeds steal_threshold per
  // instance (warm or already deploying).
  SchedulerConfig config;  // steal_threshold = 4
  AutoscaleSignal signal;
  signal.queue_depth = 8;
  signal.ready_instances = 1;
  signal.pending_instances = 1;
  signal.workers_with_room = 0;
  // tolerated = (1 + 1) * 4 = 8 >= queue: drain through the warm set.
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kHold);
  signal.queue_depth = 9;
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kDeploy);
}

TEST(DecideAutoscaleTest, QueueHighKeepsOneDeployInFlight) {
  // Sustained starvation (queue >= autoscale_queue_high) always gets
  // capacity on the way — but never stacks a second deploy on a pending
  // one.
  SchedulerConfig config;
  config.steal_threshold = 100;  // tolerated backlog far above the queue
  AutoscaleSignal signal;
  signal.queue_depth = kAutoscaleQueueHigh;
  signal.ready_instances = 1;
  signal.pending_instances = 0;
  signal.workers_with_room = 0;
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kDeploy);
  signal.pending_instances = 1;
  EXPECT_EQ(DecideAutoscale(config, signal), AutoscaleAction::kHold);
}

// ---------------------------------------------------------------------------
// Runtime-vs-DES mirror: the same demand trajectory drives the same deploy
// decisions in both backends.
// ---------------------------------------------------------------------------

TEST(SchedulerMirrorTest, SimDeploysMirrorRuntimeSpread) {
  // Mirror of runtime_test's LibrarySpreadsAcrossWorkers: 3 workers, one
  // whole-worker single-slot instance each, 9 queued invocations of one
  // library.  The runtime deploys exactly 3 instances (deploy while
  // pending * steal_threshold < queue, then hold); the simulator feeds the
  // same AutoscaleSignal trajectory through the same DecideAutoscale, so
  // it must land on exactly 3 as well.
  sim::SimConfig config;
  config.level = ReuseLevel::kL3;
  config.cluster.num_workers = 3;

  static const sim::WorkloadCosts costs = sim::LnniCosts(16);
  // One slot per worker: cores_per_worker == cores_per_invocation.
  config.cluster.cores_per_worker = costs.cores_per_invocation;
  std::vector<sim::InvocationSpec> workload;
  for (int i = 0; i < 9; ++i) workload.push_back({&costs, 1.0, 0, 0.0});

  const sim::SimResult result = sim::VineSim(config, workload).Run();
  EXPECT_EQ(result.invocations_completed, 9u);
  EXPECT_EQ(result.libraries_deployed_total, 3u);
  EXPECT_EQ(result.autoscale_deploys, 3u);
  // All nine invocations found (or created) warm capacity; none stole a
  // non-affine worker's slot, because every deploy expanded into room.
  EXPECT_EQ(result.steals, 0u);
}

TEST(SchedulerMirrorTest, SimHoldsAtStealThresholdLikeRuntime) {
  // Same cluster, but a backlog the warm set tolerates: with
  // steal_threshold = 4 a queue of 4 against one deploying instance never
  // recruits a second worker once the cluster is committed.  Here the
  // cluster has room, so the expansion rule still deploys — raising the
  // threshold must not change that (it gates displacement only).
  sim::SimConfig config;
  config.level = ReuseLevel::kL3;
  config.cluster.num_workers = 3;
  config.scheduler.steal_threshold = 100;

  static const sim::WorkloadCosts costs = sim::LnniCosts(16);
  config.cluster.cores_per_worker = costs.cores_per_invocation;
  std::vector<sim::InvocationSpec> workload;
  for (int i = 0; i < 9; ++i) workload.push_back({&costs, 1.0, 0, 0.0});

  const sim::SimResult result = sim::VineSim(config, workload).Run();
  EXPECT_EQ(result.invocations_completed, 9u);
  EXPECT_EQ(result.libraries_deployed_total, 3u);
}

}  // namespace
}  // namespace vinelet::core
