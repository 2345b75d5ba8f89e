// core::ControlCore: the L3 control state and decisions both backends run.
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
/// brings every deployed instance to ready, and finishes whatever the
/// instances took: the library ends warm and idle.
void WarmUp(ControlCore& core, const std::string& library, std::size_t calls,
            CallId* next) {
  for (std::size_t i = 0; i < calls; ++i) core.Submit(library, (*next)++);
  for (const Decision& deploy : OfKind(core.Pump(), Kind::kDeploy)) {
    ASSERT_TRUE(core.Installing(deploy.instance));
    ASSERT_TRUE(core.Ready(deploy.instance));
    for (const Decision& dispatch : core.Refill(deploy.instance))
      for (CallId call : dispatch.calls)
        ASSERT_TRUE(core.Finish(dispatch.instance, call));
  }
}

/// Runs `n` more calls of `library` on `instance`, one at a time.
void ServeOn(ControlCore& core, const std::string& library,
             LibraryInstanceId instance, std::size_t n, CallId* next) {
  for (std::size_t i = 0; i < n; ++i) {
    const CallId call = (*next)++;
    core.Submit(library, call);
    const auto decisions = core.Refill(instance);
    ASSERT_EQ(decisions.size(), 1u);
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

  // A freed slot refills its own instance first, whatever the others hold.
  core.Submit("lib", 107);
  ASSERT_TRUE(core.Finish(ids[0], 101));
  const auto refill = core.Refill(ids[0]);
  ASSERT_EQ(refill.size(), 1u);
  EXPECT_EQ(refill[0].instance, ids[0]);
  EXPECT_EQ(refill[0].calls, (std::vector<CallId>{107}));
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
  hooks.narrow = [&](CallId, std::vector<DispatchCandidate>& candidates) {
    // Keep only the highest id, as a locality preference would.
    std::erase_if(candidates, [&](const DispatchCandidate& c) {
      return c.instance_id != ids[1];
    });
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
  const auto refill = core.Refill(ids[1]);
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
  ASSERT_EQ(core.PlaceTask(1, 42, Cores(3)), std::optional<WorkerId>(7));
  EXPECT_FALSE(core.PlaceTask(2, 42, Cores(3)).has_value());  // no room
  const ControlCore::WorkerLoss loss = core.RemoveWorker(7);
  EXPECT_EQ(loss.tasks, (std::vector<TaskId>{1}));
  EXPECT_TRUE(core.workers().empty());
  core.ReleaseTask(7, 1);  // the worker is gone: a no-op
  core.AddWorker(7, Cores(4));
  EXPECT_EQ(core.PlaceTask(2, 42, Cores(3)), std::optional<WorkerId>(7));
  EXPECT_TRUE(core.Audit().violations.empty());
}

// ---------------------------------------------------------------------------
// The no-capacity memo never suppresses a decision a fresh pass would make:
// two cores take the same seeded stream of events, one with the memo and one
// without, and every pass and refill must return the same decisions.
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
        absorb(cores.Decide([&](ControlCore& c) { return c.Refill(id); }));
      } else if (op < 92 && !running.empty()) {
        const auto [id, call] = take(running);
        bool finished = false;
        cores.Both([&](ControlCore& c) {
          finished = c.Finish(id, call) != nullptr;
        });
        if (!finished) continue;  // its worker died; the call was requeued
        absorb(cores.Decide([&](ControlCore& c) { return c.Refill(id); }));
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
            "not linked", "lists unknown", "slots_in_use="})
        EXPECT_EQ(violation.find(broken), std::string::npos) << violation;
    }
  }
  // The streams must have exercised both capacity paths.
  EXPECT_GT(deploys, 1000u);
  EXPECT_GT(evicts, 200u);
}

}  // namespace
}  // namespace vinelet::core
