// core::ControlCore: the control state and decisions both backends run.
// No clock and no transport — each test feeds the core events by hand and
// checks the decisions it returns and the state it keeps.
#include "core/control_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace vinelet::core {
namespace {

using Decision = ControlCore::Decision;
using Kind = Decision::Kind;
using CallId = ControlCore::CallId;

Resources Cores(std::uint32_t cores) { return Resources{cores, 0, 0}; }

/// Every decision of `kind` in `decisions`.
std::vector<Decision> OfKind(const std::vector<Decision>& decisions,
                             Kind kind) {
  std::vector<Decision> out;
  for (const Decision& d : decisions)
    if (d.kind == kind) out.push_back(d);
  return out;
}

/// Queues `calls` calls (ids from `*next`), lets the core deploy for them,
/// brings each deployed instance to ready in turn — a pass fills it while
/// the earlier ones are still busy — and then finishes every call: the
/// library ends warm and idle.
void WarmUp(ControlCore& core, const std::string& library, std::size_t calls,
            CallId* next) {
  for (std::size_t i = 0; i < calls; ++i) core.Submit(library, (*next)++);
  std::vector<Decision> dispatches;
  for (const Decision& deploy : OfKind(core.Pump(), Kind::kDeploy)) {
    ASSERT_TRUE(core.Installing(deploy.instance));
    ASSERT_TRUE(core.Ready(deploy.instance));
    for (const Decision& dispatch : core.Pump()) {
      ASSERT_EQ(dispatch.kind, Kind::kDispatch);
      ASSERT_EQ(dispatch.instance, deploy.instance);
      dispatches.push_back(dispatch);
    }
  }
  for (const Decision& dispatch : dispatches)
    for (CallId call : dispatch.calls)
      ASSERT_TRUE(core.Finish(dispatch.instance, call));
}

/// Runs `n` more calls of `library` on `instance`, one at a time.
void ServeOn(ControlCore& core, const std::string& library,
             LibraryInstanceId instance, std::size_t n, CallId* next) {
  ControlCore::RouteHooks only;
  only.narrow = [instance](CallId, std::vector<LibraryInstanceId>& ids) {
    std::erase_if(ids, [&](LibraryInstanceId id) { return id != instance; });
  };
  for (std::size_t i = 0; i < n; ++i) {
    const CallId call = (*next)++;
    core.Submit(library, call);
    const auto decisions = core.Pump(only);
    ASSERT_EQ(decisions.size(), 1u);
    ASSERT_EQ(decisions[0].instance, instance);
    ASSERT_TRUE(core.Finish(instance, call));
  }
}

std::vector<LibraryInstanceId> InstancesOf(const ControlCore& core,
                                           const std::string& library) {
  const auto& set = core.libraries().at(library).instances;
  return {set.begin(), set.end()};
}

TEST(ControlCoreTest, RoutesToLeastLoadedTiesToLowestIdOneInstancePerBatch) {
  ControlCore core;
  core.AddWorker(1, Cores(8));
  core.AddWorker(2, Cores(8));
  core.AddLibrary("lib", Cores(1), 4);
  CallId next = 1;
  WarmUp(core, "lib", 8, &next);
  const auto ids = InstancesOf(core, "lib");
  ASSERT_EQ(ids.size(), 2u);

  // Both instances have 4 free slots: the tie goes to the lowest id, and the
  // batch is capped at that one instance's free slots, not the worker's or
  // the library's.
  for (CallId call = 100; call < 106; ++call) core.Submit("lib", call);
  const auto decisions = core.Pump();
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].kind, Kind::kDispatch);
  EXPECT_EQ(decisions[0].instance, ids[0]);
  EXPECT_EQ(decisions[0].calls, (std::vector<CallId>{100, 101, 102, 103}));
  EXPECT_EQ(decisions[1].instance, ids[1]);
  EXPECT_EQ(decisions[1].calls, (std::vector<CallId>{104, 105}));

  // Most free slots wins: ids[0] has 1 free, ids[1] has 2.
  ASSERT_TRUE(core.Finish(ids[0], 100));
  core.Submit("lib", 106);
  const auto routed = core.Pump();
  ASSERT_EQ(routed.size(), 1u);
  EXPECT_EQ(routed[0].instance, ids[1]);

  // A freed slot takes the next call once it leaves its instance the least
  // loaded: ids[0] now has 2 free, ids[1] 1.
  core.Submit("lib", 107);
  ASSERT_TRUE(core.Finish(ids[0], 101));
  const auto refill = core.Pump();
  ASSERT_EQ(refill.size(), 1u);
  EXPECT_EQ(refill[0].instance, ids[0]);
  EXPECT_EQ(refill[0].calls, (std::vector<CallId>{107}));
}

/// Three warm single-worker instances of "lib" (3 slots each) holding
/// `loads[i]` calls each, placed through a narrowing hook.
std::vector<LibraryInstanceId> LoadedInstances(
    ControlCore& core, const std::vector<std::uint32_t>& loads) {
  core.AddWorker(1, Cores(3));
  core.AddLibrary("lib", Cores(1), 3);
  CallId next = 1;
  WarmUp(core, "lib", 9, &next);
  const auto ids = InstancesOf(core, "lib");
  EXPECT_EQ(ids.size(), 3u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ControlCore::RouteHooks only;
    only.narrow = [&](CallId, std::vector<LibraryInstanceId>& candidates) {
      candidates = {ids[i]};
    };
    if (loads[i] == 0) continue;
    for (std::uint32_t n = 0; n < loads[i]; ++n) core.Submit("lib", next++);
    EXPECT_EQ(core.Pump(only).size(), 1u);
  }
  return ids;
}

TEST(ControlCoreTest, LeastLoadedMostFreeSlotsWins) {
  ControlCore core;
  const auto ids = LoadedInstances(core, {2, 0, 1});  // free 1, 3, 2
  core.Submit("lib", 100);
  const auto decisions = core.Pump();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].instance, ids[1]);
}

TEST(ControlCoreTest, LeastLoadedTiesBreakTowardLowestInstanceId) {
  // A narrowing hook sees the ready instances least loaded first, ties by
  // id, full ones last, whatever order they were loaded in.
  ControlCore core;
  const auto ids = LoadedInstances(core, {3, 1, 1});  // free 0, 2, 2
  std::vector<LibraryInstanceId> offered;
  ControlCore::RouteHooks watch;
  watch.narrow = [&](CallId, std::vector<LibraryInstanceId>& candidates) {
    offered = candidates;
  };
  core.Submit("lib", 100);
  const auto decisions = core.Pump(watch);
  EXPECT_EQ(offered, (std::vector<LibraryInstanceId>{ids[1], ids[2], ids[0]}));
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].instance, ids[1]);

  // Narrowed to the full instance, the next call waits for it.
  ControlCore::RouteHooks full;
  full.narrow = [&](CallId, std::vector<LibraryInstanceId>& candidates) {
    candidates = {ids[0]};
  };
  core.Submit("lib", 101);
  EXPECT_TRUE(core.Pump(full).empty());
  EXPECT_EQ(core.libraries().at("lib").queue.size(), 1u);
}

TEST(ControlCoreTest, LeastLoadedNoFreeSlotDispatchesNothing) {
  ControlCore core;
  LoadedInstances(core, {3, 3, 3});  // full, and no room for a fourth
  core.Submit("lib", 100);
  EXPECT_TRUE(core.Pump().empty());
  EXPECT_EQ(core.libraries().at("lib").queue.size(), 1u);
}

TEST(ControlCoreTest, NewlyReadyInstanceFillsBeforeNarrowing) {
  // The hook prefers the first instance (say, it holds every ref argument)
  // and it is full, so the backlog waits and the autoscaler deploys.  The
  // new instance takes the queue front once ready, whatever the hook says.
  ControlCore core;
  core.AddWorker(1, Cores(1));
  core.AddWorker(2, Cores(1));
  core.AddLibrary("lib", Cores(1), 2);
  CallId next = 1;
  WarmUp(core, "lib", 2, &next);
  const LibraryInstanceId first = InstancesOf(core, "lib").front();
  ControlCore::RouteHooks prefer_first;
  prefer_first.narrow = [&](CallId, std::vector<LibraryInstanceId>& ids) {
    ids = {first};
  };
  for (CallId call = 10; call < 15; ++call) core.Submit("lib", call);
  const auto filled = core.Pump(prefer_first);
  ASSERT_EQ(OfKind(filled, Kind::kDispatch).size(), 1u);  // first: 2 calls
  const auto deploys = OfKind(filled, Kind::kDeploy);
  ASSERT_EQ(deploys.size(), 1u);
  ASSERT_TRUE(core.Installing(deploys[0].instance));
  ASSERT_TRUE(core.Ready(deploys[0].instance));
  const auto decisions = core.Pump(prefer_first);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].instance, deploys[0].instance);
  EXPECT_EQ(decisions[0].calls, (std::vector<CallId>{12, 13}));

  // After that, the hook decides again: 14 waits for `first` even though
  // the new instance has a free slot.
  ASSERT_TRUE(core.Finish(deploys[0].instance, 12));
  EXPECT_TRUE(core.Pump(prefer_first).empty());
  ASSERT_TRUE(core.Finish(first, 10));
  const auto held = core.Pump(prefer_first);
  ASSERT_EQ(held.size(), 1u);
  EXPECT_EQ(held[0].instance, first);
  EXPECT_EQ(held[0].calls, (std::vector<CallId>{14}));
}

TEST(ControlCoreTest, BatchIsCappedAtMaxBatch) {
  ControlCore core;
  core.AddWorker(1, Cores(64));
  core.AddLibrary("wide", Cores(1), 2 * kMaxBatch);
  CallId next = 1;
  WarmUp(core, "wide", 1, &next);
  for (std::uint32_t i = 0; i < 2 * kMaxBatch; ++i) core.Submit("wide", next++);
  const auto decisions = core.Pump();
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].calls.size(), kMaxBatch);
  EXPECT_EQ(decisions[1].calls.size(), kMaxBatch);
}

TEST(ControlCoreTest, RouteHooksDropUnrunnableCallsAndNarrowCandidates) {
  ControlCore core;
  core.AddWorker(1, Cores(2));
  core.AddWorker(2, Cores(2));
  core.AddLibrary("lib", Cores(1), 1);
  CallId next = 1;
  WarmUp(core, "lib", 2, &next);
  const auto ids = InstancesOf(core, "lib");
  ASSERT_EQ(ids.size(), 2u);

  ControlCore::RouteHooks hooks;
  hooks.unrunnable = [](CallId call) { return call == 50; };
  hooks.narrow = [&](CallId, std::vector<LibraryInstanceId>& candidates) {
    // Keep only the highest id, as a locality preference would.
    std::erase_if(candidates,
                  [&](LibraryInstanceId id) { return id != ids[1]; });
  };
  core.Submit("lib", 50);  // dropped at the queue front
  core.Submit("lib", 51);
  const auto decisions = core.Pump(hooks);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].instance, ids[1]);
  EXPECT_EQ(decisions[0].calls, (std::vector<CallId>{51}));
  EXPECT_TRUE(core.libraries().at("lib").queue.empty());
}

TEST(ControlCoreTest, EvictsShareFloorVictimsFirst) {
  // One worker with room for four single-slot instances: two of `a`, two of
  // `b`.  `a` served 3 and 4 (share 3.5, below kShareFloor); `b` served 1
  // and 7 (share 4, at the floor).  The starved library evicts from `a`,
  // although `b` holds the least-served instance.
  ControlCore core;
  core.AddWorker(1, Cores(4));
  for (const char* name : {"a", "b", "c"}) core.AddLibrary(name, Cores(1), 1);
  CallId next = 1;
  WarmUp(core, "a", 2, &next);
  WarmUp(core, "b", 2, &next);
  const auto a = InstancesOf(core, "a");
  const auto b = InstancesOf(core, "b");
  ServeOn(core, "a", a[0], 2, &next);  // 3
  ServeOn(core, "a", a[1], 3, &next);  // 4
  ServeOn(core, "b", b[1], 6, &next);  // 7; b[0] stays at 1

  core.Submit("c", next++);
  const auto decisions = core.Pump();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, Kind::kEvict);
  EXPECT_EQ(decisions[0].instance, a[0]);
  EXPECT_EQ(decisions[0].library, "a");
  EXPECT_EQ(core.FindInstance(a[0])->state, InstanceState::kDraining);
  EXPECT_EQ(core.affinity().CountFor("a"), 1u);

  // The room comes back only with the removal; then `c` deploys into it.
  ASSERT_TRUE(core.Remove(a[0]).has_value());
  const auto deploy = OfKind(core.Pump(), Kind::kDeploy);
  ASSERT_EQ(deploy.size(), 1u);
  EXPECT_EQ(deploy[0].library, "c");
  EXPECT_EQ(deploy[0].worker, 1u);
}

TEST(ControlCoreTest, EvictedRoomGoesToTheLibraryThatAskedForIt) {
  // One worker, full: `z` idle and warm, `a` busy with one more call queued
  // (within its tolerated backlog, so it holds).  The cold `x` starves and
  // evicts `z`.  When the removal lands, `a` sorts first and would take the
  // room as spare-room expansion; the reservation serves `x` first.
  ControlCore core;
  core.AddWorker(1, Cores(2));
  for (const char* name : {"a", "x", "z"}) core.AddLibrary(name, Cores(1), 1);
  CallId next = 1;
  WarmUp(core, "z", 1, &next);
  WarmUp(core, "a", 1, &next);
  const LibraryInstanceId z = InstancesOf(core, "z").front();
  core.Submit("a", next++);
  core.Submit("a", next++);
  core.Submit("x", next++);
  const auto decisions = core.Pump();
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].kind, Kind::kDispatch);
  EXPECT_EQ(decisions[1].kind, Kind::kEvict);
  EXPECT_EQ(decisions[1].instance, z);

  ASSERT_TRUE(core.Remove(z).has_value());
  const auto reserved = [&] {
    const auto violations = core.Audit().violations;
    return std::count_if(violations.begin(), violations.end(),
                         [](const std::string& v) {
                           return v.find("reserved for library x") !=
                                  std::string::npos;
                         });
  };
  EXPECT_EQ(reserved(), 1);
  const auto deploys = OfKind(core.Pump(), Kind::kDeploy);
  ASSERT_EQ(deploys.size(), 1u);
  EXPECT_EQ(deploys[0].library, "x");
  EXPECT_EQ(deploys[0].worker, 1u);
  EXPECT_EQ(reserved(), 0);
}

TEST(ControlCoreTest, ReservationDiesWithItsWorker) {
  ControlCore core;
  core.AddWorker(1, Cores(1));
  for (const char* name : {"x", "z"}) core.AddLibrary(name, Cores(1), 1);
  CallId next = 1;
  WarmUp(core, "z", 1, &next);
  const LibraryInstanceId z = InstancesOf(core, "z").front();
  core.Submit("x", next++);
  ASSERT_EQ(OfKind(core.Pump(), Kind::kEvict).size(), 1u);
  ASSERT_TRUE(core.Remove(z).has_value());
  core.RemoveWorker(1);
  for (const std::string& violation : core.Audit().violations)
    EXPECT_EQ(violation.find("reserved"), std::string::npos) << violation;
  EXPECT_TRUE(core.Pump().empty());
}

TEST(ControlCoreTest, EvictsLeastServedThenLowestIdAmongEquals) {
  // Neither library is below the floor: the least-served idle instance goes,
  // and equal counts fall to the lowest id.
  ControlCore core;
  core.AddWorker(1, Cores(4));
  for (const char* name : {"a", "b", "c"}) core.AddLibrary(name, Cores(1), 1);
  CallId next = 1;
  WarmUp(core, "a", 2, &next);
  WarmUp(core, "b", 2, &next);
  const auto a = InstancesOf(core, "a");
  const auto b = InstancesOf(core, "b");
  ServeOn(core, "a", a[0], 5, &next);  // 6
  ServeOn(core, "a", a[1], 8, &next);  // 9
  ServeOn(core, "b", b[0], 4, &next);  // 5
  ServeOn(core, "b", b[1], 4, &next);  // 5

  core.Submit("c", next++);
  auto decisions = core.Pump();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].instance, b[0]);  // 5 ties with b[1]: lower id

  // While the first eviction drains, a new pass evicts the next victim.
  decisions = core.Pump();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].instance, b[1]);
}

TEST(ControlCoreTest, DuplicateEventsChangeNothing) {
  ControlCore core;
  core.AddWorker(1, Cores(4));
  core.AddLibrary("lib", Cores(2), 2);
  CallId next = 1;
  WarmUp(core, "lib", 1, &next);
  const LibraryInstanceId id = InstancesOf(core, "lib").front();

  const auto check_settled = [&] {
    EXPECT_EQ(core.warm_instances(), 1u);
    EXPECT_EQ(core.affinity().CountFor("lib"), 1u);
    EXPECT_TRUE(core.Audit().violations.empty());
  };
  // A second Ready (or a late Installing) is a no-op.
  EXPECT_FALSE(core.Ready(id));
  EXPECT_FALSE(core.Installing(id));
  check_settled();

  // A second reply for the same call is a no-op.
  core.Submit("lib", 90);
  ASSERT_EQ(core.Pump().size(), 1u);
  EXPECT_TRUE(core.Finish(id, 90));
  EXPECT_FALSE(core.Finish(id, 90));
  EXPECT_EQ(core.FindInstance(id)->slots_in_use, 0u);
  EXPECT_EQ(core.FindInstance(id)->served, 2u);
  check_settled();

  // A second Removed is a no-op.
  ASSERT_TRUE(core.Remove(id).has_value());
  EXPECT_FALSE(core.Remove(id).has_value());
  EXPECT_FALSE(core.Ready(id));
  EXPECT_FALSE(core.Finish(id, 90));
  EXPECT_EQ(core.warm_instances(), 0u);
  EXPECT_EQ(core.affinity().Get("lib"), nullptr);
  EXPECT_EQ(core.workers().at(1).alloc.free(), Cores(4));
  EXPECT_TRUE(core.Audit().violations.empty());
}

TEST(ControlCoreTest, WorkerDeathSweepReturnsInFlightCallsInOrder) {
  ControlCore core;
  core.AddWorker(1, Cores(4));
  core.AddWorker(2, Cores(4));
  core.AddLibrary("lib", Cores(4), 4);  // one whole-worker instance each
  CallId next = 1;
  WarmUp(core, "lib", 8, &next);
  const auto ids = InstancesOf(core, "lib");
  ASSERT_EQ(ids.size(), 2u);
  const WorkerId doomed = core.FindInstance(ids[0])->worker;
  const WorkerId survivor = core.FindInstance(ids[1])->worker;
  ASSERT_NE(doomed, survivor);

  for (CallId call : {30, 50, 70, 90, 110}) core.Submit("lib", call);
  ASSERT_EQ(core.Pump().size(), 2u);  // four on ids[0], one on ids[1]

  ControlCore::WorkerLoss loss = core.RemoveWorker(doomed);
  ASSERT_EQ(loss.instances.size(), 1u);
  EXPECT_EQ(loss.instances[0].id, ids[0]);
  EXPECT_EQ(std::vector<CallId>(loss.instances[0].running.begin(),
                                loss.instances[0].running.end()),
            (std::vector<CallId>{30, 50, 70, 90}));
  EXPECT_FALSE(core.workers().contains(doomed));
  EXPECT_FALSE(core.ring().Contains(doomed));
  EXPECT_FALSE(core.affinity().Contains("lib", doomed));
  EXPECT_EQ(core.FindInstance(ids[0]), nullptr);
  EXPECT_EQ(core.warm_instances(), 1u);
  EXPECT_TRUE(core.RemoveWorker(doomed).instances.empty());  // idempotent

  // The driver requeues each lost call at the front, in the order returned.
  for (CallId call : loss.instances[0].running) core.Requeue("lib", call);
  const auto& queue = core.libraries().at("lib").queue;
  EXPECT_EQ(std::vector<CallId>(queue.begin(), queue.end()),
            (std::vector<CallId>{90, 70, 50, 30}));

  // The survivor takes them once its slot frees; then all is settled.
  ASSERT_TRUE(core.Finish(ids[1], 110));
  const auto refill = core.Pump();
  ASSERT_EQ(refill.size(), 1u);
  EXPECT_EQ(refill[0].calls, (std::vector<CallId>{90, 70, 50, 30}));
  for (CallId call : refill[0].calls) ASSERT_TRUE(core.Finish(ids[1], call));
  const auto audit = core.Audit();
  EXPECT_TRUE(audit.violations.empty()) << audit.violations.front();
  EXPECT_EQ(audit.affinity_entries, 1u);
}

TEST(ControlCoreTest, WorkerDeathDropsTaskClaims) {
  ControlCore core;
  core.AddWorker(7, Cores(4));
  core.SubmitTask(1, 42, Cores(3));
  core.SubmitTask(2, 42, Cores(3));
  const auto placed = core.Pump();
  ASSERT_EQ(placed.size(), 1u);  // no room for the second
  EXPECT_EQ(placed[0].kind, Kind::kTask);
  EXPECT_EQ(placed[0].task, 1u);
  EXPECT_EQ(placed[0].worker, 7u);
  EXPECT_EQ(core.queued_tasks(), 1u);
  const ControlCore::WorkerLoss loss = core.RemoveWorker(7);
  EXPECT_EQ(loss.tasks, (std::vector<TaskId>{1}));
  EXPECT_TRUE(core.workers().empty());
  core.ReleaseTask(7, 1);  // the worker is gone: a no-op
  EXPECT_TRUE(core.Pump().empty());
  core.AddWorker(7, Cores(4));
  const auto replaced = core.Pump();
  ASSERT_EQ(replaced.size(), 1u);
  EXPECT_EQ(replaced[0].task, 2u);
  EXPECT_EQ(replaced[0].worker, 7u);
  EXPECT_TRUE(core.Audit().violations.empty());
}

TEST(ControlCoreTest, TasksPlaceFirstFitInFifoOrderAcrossShapes) {
  ControlCore core;
  core.AddWorker(1, Cores(4));
  core.SubmitTask(1, 0, Cores(3));
  core.SubmitTask(2, 0, Cores(2));  // waits: 1 core left after task 1
  core.SubmitTask(3, 0, Cores(1));  // fits behind it
  core.SubmitTask(4, 0, Cores(3));
  const auto placed = [&] {
    std::vector<TaskId> out;
    for (const Decision& d : core.Pump()) {
      EXPECT_EQ(d.kind, Kind::kTask);
      out.push_back(d.task);
    }
    return out;
  };
  EXPECT_EQ(placed(), (std::vector<TaskId>{1, 3}));
  EXPECT_EQ(core.Audit().queued_tasks, 2u);
  core.ReleaseTask(1, 1);
  EXPECT_EQ(placed(), (std::vector<TaskId>{2}));  // 4 still needs 3 cores
  core.ReleaseTask(1, 2);
  core.SubmitTask(2, 0, Cores(2));  // a retry goes behind task 4
  EXPECT_EQ(placed(), (std::vector<TaskId>{4}));
  core.ReleaseTask(1, 3);
  core.ReleaseTask(1, 4);
  EXPECT_EQ(placed(), (std::vector<TaskId>{2}));
  core.ReleaseTask(1, 2);
  EXPECT_TRUE(core.Audit().violations.empty());
}

TEST(ControlCoreTest, TasksWalkTheRingFromTheirKey) {
  // Single-slot workers: the tasks of one key fill the walk from that key
  // in ring order, whatever the worker ids.
  ControlCore core;
  for (WorkerId w = 1; w <= 5; ++w) core.AddWorker(w, Cores(1));
  const std::uint64_t key = 0xF00D;
  for (TaskId t = 1; t <= 5; ++t) core.SubmitTask(t, key, Cores(1));
  std::vector<std::uint64_t> workers;
  for (const Decision& d : core.Pump()) workers.push_back(d.worker);
  EXPECT_EQ(workers, core.ring().WalkFrom(key));
}

TEST(ControlCoreTest, FullClusterPassWalksTheRingAtMostOncePerShape) {
  ControlCore core;
  const Resources task{1, 1024, 1024};
  for (WorkerId w = 1; w <= 150; ++w) core.AddWorker(w, {16, 16384, 16384});
  TaskId next = 1;
  for (; next <= 150 * 16; ++next) core.SubmitTask(next, next, task);
  const auto filled = core.Pump();
  ASSERT_EQ(filled.size(), 150u * 16);

  // Every worker is full: a deep queue of the same shape is ruled out by
  // the free-room summary without a single ring walk.
  const TaskId deep = next;
  for (int i = 0; i < 1000; ++i, ++next) core.SubmitTask(next, next, task);
  std::uint64_t walks = core.ring_walks();
  EXPECT_TRUE(core.Pump().empty());
  EXPECT_EQ(core.ring_walks(), walks);

  // One slot frees: the oldest queued task takes it with one walk, and the
  // rest of the queue is ruled out again.
  core.ReleaseTask(filled[37].worker, filled[37].task);
  const auto placed = core.Pump();
  ASSERT_EQ(placed.size(), 1u);
  EXPECT_EQ(placed[0].task, deep);
  EXPECT_EQ(placed[0].worker, filled[37].worker);
  EXPECT_EQ(core.ring_walks(), walks + 1);

  // Two workers whose free room is split across dimensions: the summary
  // admits both queued shapes, neither fits any worker, and the pass stops
  // trying each shape after its first failed walk.
  core.AddWorker(1001, Cores(4));
  core.AddWorker(1002, {0, 4096, 4096});
  const Resources other{2, 2048, 0};
  for (int i = 0; i < 500; ++i, ++next) core.SubmitTask(next, next, other);
  walks = core.ring_walks();
  EXPECT_TRUE(core.Pump().empty());
  EXPECT_EQ(core.ring_walks(), walks + 2);
  EXPECT_EQ(core.queued_tasks(), 999u + 500u);
}

TEST(ControlCoreTest, FreeRoomSummaryNeverChangesATaskPlacement) {
  // A seeded stream of task submissions, releases, joins and deaths.  After
  // each pass the placements must equal a reference first-fit FIFO walk
  // over every ring point with no summary, and the audit must find the
  // summary equal to the allocators.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    const std::vector<Resources> shapes = {
        {1, 512, 0}, {2, 256, 256}, {1, 0, 1024}, Resources::All()};
    const std::vector<Resources> totals = {{4, 2048, 2048}, {2, 512, 4096},
                                           {8, 1024, 1024}};
    ControlCore core;
    std::map<WorkerId, ResourceAllocator> free;  // the reference's room
    struct Queued {
      TaskId task;
      std::uint64_t key;
      Resources request;
    };
    std::vector<Queued> queue;
    std::map<TaskId, Queued> submitted;
    std::map<TaskId, std::pair<WorkerId, Resources>> running;
    TaskId next = 1;
    std::size_t placed_total = 0;
    for (int step = 0; step < 3000; ++step) {
      const std::size_t op = pick(100);
      if (op < 30) {
        const Resources& request = shapes[pick(shapes.size())];
        const std::uint64_t key = rng();
        core.SubmitTask(next, key, request);
        queue.push_back({next, key, request});
        submitted[next] = queue.back();
        ++next;
      } else if (op < 60 && !running.empty()) {
        auto it = std::next(running.begin(),
                            static_cast<std::ptrdiff_t>(pick(running.size())));
        core.ReleaseTask(it->second.first, it->first);
        ASSERT_TRUE(free.at(it->second.first).Release(it->second.second).ok());
        running.erase(it);
      } else if (op < 65) {
        const WorkerId w = 1 + pick(8);
        if (free.contains(w)) {
          const auto loss = core.RemoveWorker(w);
          free.erase(w);
          for (TaskId task : loss.tasks) {  // retried, as the Manager does
            running.erase(task);
            const Queued& retry = submitted.at(task);
            core.SubmitTask(task, retry.key, retry.request);
            queue.push_back(retry);
          }
        } else {
          const Resources& total = totals[pick(totals.size())];
          core.AddWorker(w, total);
          free.emplace(w, ResourceAllocator(total));
        }
      } else {
        // The reference pass: FIFO, each task on the first worker with room
        // on the walk from its key.
        std::vector<std::pair<TaskId, WorkerId>> expected;
        std::vector<Queued> left;
        for (const Queued& q : queue) {
          WorkerId target = 0;
          for (std::uint64_t w : core.ring().WalkFrom(q.key)) {
            if (free.at(w).CanAllocate(q.request)) {
              target = w;
              break;
            }
          }
          if (target == 0) {
            left.push_back(q);
            continue;
          }
          auto claimed = free.at(target).Allocate(q.request);
          ASSERT_TRUE(claimed.ok());
          running[q.task] = {target, *claimed};
          expected.emplace_back(q.task, target);
        }
        queue = std::move(left);
        std::vector<std::pair<TaskId, WorkerId>> actual;
        for (const Decision& d : core.Pump()) {
          ASSERT_EQ(d.kind, Kind::kTask);
          actual.emplace_back(d.task, d.worker);
        }
        ASSERT_EQ(actual, expected);
        placed_total += actual.size();
        for (const std::string& violation : core.Audit().violations)
          EXPECT_EQ(violation.find("free-room"), std::string::npos)
              << violation;
      }
    }
    EXPECT_GT(placed_total, 300u);
  }
}

// ---------------------------------------------------------------------------
// The no-capacity memo never suppresses a decision a fresh pass would make:
// two cores take the same seeded stream of events, one with the memo and one
// without, and every pass must return the same decisions.
// ---------------------------------------------------------------------------

/// Drives two cores in lockstep and asserts they decide identically.
class Lockstep {
 public:
  Lockstep() { without_.set_capacity_memo(false); }

  template <typename Fn>
  void Both(Fn&& fn) {
    fn(with_);
    fn(without_);
  }

  std::vector<Decision> Decide(
      const std::function<std::vector<Decision>(ControlCore&)>& fn) {
    const auto a = fn(with_);
    const auto b = fn(without_);
    EXPECT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind) << "decision " << i;
      EXPECT_EQ(a[i].instance, b[i].instance) << "decision " << i;
      EXPECT_EQ(a[i].worker, b[i].worker) << "decision " << i;
      EXPECT_EQ(a[i].library, b[i].library) << "decision " << i;
      EXPECT_EQ(a[i].calls, b[i].calls) << "decision " << i;
      EXPECT_EQ(a[i].steal, b[i].steal) << "decision " << i;
    }
    return a;
  }

  const ControlCore& core() const { return with_; }

 private:
  ControlCore with_;
  ControlCore without_;
};

TEST(ControlCoreTest, CapacityMemoNeverSuppressesADecision) {
  std::size_t deploys = 0, evicts = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    Lockstep cores;
    const std::vector<std::string> names = {"l0", "l1", "l2", "l3", "l4", "l5"};
    for (std::size_t i = 0; i < names.size(); ++i) {
      const Resources request = Cores(i % 3 == 2 ? 2 : 1);
      const std::uint32_t slots = i % 2 == 0 ? 1 : 2;
      cores.Both(
          [&](ControlCore& c) { c.AddLibrary(names[i], request, slots); });
    }
    std::map<WorkerId, bool> alive;
    for (WorkerId w = 1; w <= 4; ++w) {
      cores.Both([&](ControlCore& c) { c.AddWorker(w, Cores(w % 2 ? 3 : 4)); });
      alive[w] = true;
    }

    std::vector<LibraryInstanceId> staging, draining;
    std::vector<std::pair<LibraryInstanceId, CallId>> running;
    CallId next = 1;
    auto absorb = [&](const std::vector<Decision>& decisions) {
      for (const Decision& d : decisions) {
        if (d.kind == Kind::kDeploy) {
          staging.push_back(d.instance);
          ++deploys;
        } else if (d.kind == Kind::kEvict) {
          draining.push_back(d.instance);
          ++evicts;
        } else {
          for (CallId call : d.calls) running.emplace_back(d.instance, call);
        }
      }
    };
    auto take = [&](auto& list) {
      const std::size_t i = pick(list.size());
      auto item = list[i];
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
      return item;
    };

    for (int step = 0; step < 5000; ++step) {
      const std::size_t op = pick(100);
      if (op < 10) {
        // A burst of calls, skewed toward the first libraries.
        const std::string& library = names[std::min(pick(6), pick(6))];
        const std::size_t burst = 1 + pick(3);
        for (std::size_t i = 0; i < burst; ++i, ++next)
          cores.Both([&](ControlCore& c) { c.Submit(library, next); });
      } else if (op < 35) {
        absorb(cores.Decide([](ControlCore& c) { return c.Pump(); }));
      } else if (op < 60 && !staging.empty()) {
        const LibraryInstanceId id = take(staging);
        if (cores.core().FindInstance(id) == nullptr) continue;  // died
        cores.Both([&](ControlCore& c) {
          c.Installing(id);
          c.Ready(id);
        });
        absorb(cores.Decide([](ControlCore& c) { return c.Pump(); }));
      } else if (op < 92 && !running.empty()) {
        const auto [id, call] = take(running);
        bool finished = false;
        cores.Both([&](ControlCore& c) {
          finished = c.Finish(id, call) != nullptr;
        });
        if (!finished) continue;  // its worker died; the call was requeued
        absorb(cores.Decide([](ControlCore& c) { return c.Pump(); }));
      } else if (op < 99 && !draining.empty()) {
        const LibraryInstanceId id = take(draining);
        cores.Both([&](ControlCore& c) { c.Remove(id); });
      } else {
        const WorkerId w = 1 + pick(4);
        if (alive[w]) {
          cores.Both([&](ControlCore& c) {
            const ControlCore::WorkerLoss loss = c.RemoveWorker(w);
            for (const auto& instance : loss.instances)
              for (CallId call : instance.running)
                c.Requeue(instance.library, call);
          });
        } else {
          cores.Both(
              [&](ControlCore& c) { c.AddWorker(w, Cores(w % 2 ? 3 : 4)); });
        }
        alive[w] = !alive[w];
      }
      if (::testing::Test::HasFailure()) return;
    }
    // Whatever is still in flight, the bookkeeping must be consistent.
    for (const std::string& violation : cores.core().Audit().violations) {
      for (const char* broken :
           {"affinity", "oversubscribed", "allocator", "sums", "warm-instance",
            "not linked", "lists unknown", "slots_in_use=", "free-room"})
        EXPECT_EQ(violation.find(broken), std::string::npos) << violation;
    }
  }
  // The streams must have exercised both capacity paths.
  EXPECT_GT(deploys, 1000u);
  EXPECT_GT(evicts, 200u);
}

}  // namespace
}  // namespace vinelet::core
