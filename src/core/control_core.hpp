// ControlCore: the control state and decisions of every reuse level,
// written once.
//
// The paper's placement and retain mechanisms — place work on a walk of a
// hash ring of workers (§3.5.2), place each call on retained context
// (§3.4), evict an empty library when another function starves (§3.5.2) —
// live here, with no clock, no transport and no telemetry.  Its two
// drivers, the live Manager and the DES (VineSim), feed it events and carry
// out the decisions it returns.
//
// The core owns the L1/L2 task queue, the per-library call queues, the
// instance table (ids minted here), one ResourceAllocator per worker, a
// summary of their free room, the hash ring, and the AffinityIndex and
// warm-instance count, both kept by its own transitions.  A queued task or
// call is the driver's id for it (TaskId or InvocationId in the Manager, the
// invocation index in the DES); the work itself stays in a driver-side
// table.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/resources.hpp"
#include "core/scheduler.hpp"
#include "core/types.hpp"
#include "hash/hash_ring.hpp"

namespace vinelet::core {

enum class InstanceState : std::uint8_t {
  kStaging,     // placed; its input files are on the way
  kInstalling,  // install sent; waiting for LibraryReady
  kReady,       // warm: takes calls, counts toward affinity
  kDraining,    // eviction sent; waiting for LibraryRemoved
};

class ControlCore {
 public:
  using CallId = std::uint64_t;

  struct Instance {
    LibraryInstanceId id = 0;
    std::string library;
    WorkerId worker = 0;
    InstanceState state = InstanceState::kStaging;
    Resources claimed;
    std::uint32_t slots = 1;
    std::uint32_t slots_in_use = 0;
    std::uint64_t served = 0;  // calls finished here (Fig 11 share value)
    std::set<CallId> running;  // calls in flight, ascending id
    std::string evicted_for;   // kDraining: the library that asked for room
  };

  struct Library {
    Resources resources;
    std::uint32_t slots = 1;
    std::uint64_t ring_key = 0;  // hash of the name, taken once
    std::deque<CallId> queue;
    std::set<LibraryInstanceId> instances;  // every state
    std::set<LibraryInstanceId> idle;       // ready, nothing in flight
    /// Ready instances as (-free slots, id): least loaded first, ties to
    /// the lowest id.
    std::set<std::pair<std::int64_t, LibraryInstanceId>> by_load;
    // Sums over `instances`, kept by every transition so that a signal
    // costs O(1); Audit() recounts them.
    std::size_t ready = 0, pending = 0;  // pending: staging or installing
    std::size_t free_slots = 0, pending_slots = 0;
    std::uint64_t served = 0;  // by ready instances
  };

  struct Worker {
    ResourceAllocator alloc;
    std::set<LibraryInstanceId> instances;
    std::map<TaskId, Resources> tasks;  // claims of placed tasks
    explicit Worker(Resources total) : alloc(total) {}
  };

  /// A decision for the driver to carry out; the core already reflects it.
  struct Decision {
    enum class Kind : std::uint8_t {
      kDispatch,  // send `calls` to `instance`, one batch
      kDeploy,    // stage and install the new `instance` on `worker`
      kEvict,     // tell `worker` to remove the idle `instance`
      kTask,      // run `task` on `worker`, whose room it has claimed
    };
    Kind kind = Kind::kDispatch;
    TaskId task = 0;
    LibraryInstanceId instance = 0;
    WorkerId worker = 0;
    std::string library;
    /// kDispatch: the batch in queue order.  kDeploy: the queued call that
    /// asked for the capacity (its trace owns the install).
    std::vector<CallId> calls;
    /// kDeploy: outside the library's warm set while it is warm elsewhere.
    bool steal = false;
  };

  /// Driver inputs to routing.
  struct RouteHooks {
    /// The call at a queue front can never run; the driver has failed it
    /// and the core drops it.  (Manager: a ref argument lost every replica.)
    std::function<bool(CallId)> unrunnable;
    /// Narrows two or more ready instances, least loaded first, for the
    /// call at the queue front; the first one left takes it when it has a
    /// free slot.
    /// (Manager: keep the workers holding the most ref-argument bytes.)
    std::function<void(CallId, std::vector<LibraryInstanceId>&)> narrow;
  };

  struct WorkerLoss {
    std::vector<TaskId> tasks;        // ascending
    std::vector<Instance> instances;  // ascending id, with their calls
  };

  struct AuditReport {
    std::vector<std::string> violations;
    std::size_t queued_tasks = 0;
    std::size_t queued_calls = 0;
    std::size_t instances = 0;
    std::size_t running_invocations = 0;
    std::size_t active = 0;  // ready or draining instances
    std::size_t warm = 0;    // ready instances, recounted
    std::size_t affinity_entries = 0;
  };

  explicit ControlCore(SchedulerConfig config = {}) : config_(config) {}

  // ---- events in ---------------------------------------------------------
  // Instance events change nothing, and return false (nullopt, nullptr),
  // when they do not apply: a duplicated frame is a no-op.

  /// No-op if the worker is already known.
  void AddWorker(WorkerId worker, Resources total);
  /// The death sweep: forgets the worker's claims, ring points, instances
  /// and affinity entries, and returns what was lost; each instance's calls
  /// come back ascending, for the driver to requeue at the front.
  WorkerLoss RemoveWorker(WorkerId worker);

  /// Queues a task, new or retried, behind every queued task: a pass places
  /// it on the first worker with room for `request` on the ring walk from
  /// `key` (the hash of its function's name).
  void SubmitTask(TaskId task, std::uint64_t key, const Resources& request);
  /// The placed task finished or failed: returns its claim.
  void ReleaseTask(WorkerId worker, TaskId task);

  /// Registers (or re-registers) a library template.
  void AddLibrary(const std::string& name, const Resources& resources,
                  std::uint32_t slots);
  /// Queues a new call; returns whether its library was warm anywhere (the
  /// affinity-hit signal).
  bool Submit(const std::string& library, CallId call);
  /// Puts a call back at the front of its library's queue (a retry).
  void Requeue(const std::string& library, CallId call);

  bool Installing(LibraryInstanceId id);  // staging done, install sent
  bool Ready(LibraryInstanceId id);       // only from kInstalling
  /// Removed after eviction, setup failed, or staging abandoned: releases
  /// the claim and returns the instance with any calls still in flight.
  std::optional<Instance> Remove(LibraryInstanceId id);
  /// A call finished on `instance`, successfully or not: frees its slot and
  /// counts it served.  Returns the instance; nullptr unless the call was
  /// running there.
  const Instance* Finish(LibraryInstanceId instance, CallId call);

  // ---- decisions out ---------------------------------------------------

  /// One pass.  Queued tasks go first, first-fit in FIFO order; then each
  /// instance that became ready since the last pass fills its slots from
  /// its library's queue, unnarrowed.  Then the libraries with queued
  /// calls, in name order: route calls to the least-loaded warm instance;
  /// when none has a slot, ask the autoscaler, deploy on the first worker
  /// with room on the ring walk from the library's key, or else evict one
  /// idle instance of another library and wait for its removal.  A library
  /// whose eviction's removal has landed since the last pass is served
  /// before the name-order pass, so the room it freed goes to it if its
  /// own verdict still wants it.
  std::vector<Decision> Pump(const RouteHooks& hooks = {});
  /// The memo Pump() keeps changes no decision (control_core_test compares
  /// a core with it against one without); switching it off only costs time.
  void set_capacity_memo(bool on) { capacity_memo_ = on; }

  // ---- views --------------------------------------------------------------

  const Instance* FindInstance(LibraryInstanceId id) const;
  const std::map<LibraryInstanceId, Instance>& instances() const {
    return instance_table_;
  }
  const std::map<std::string, Library>& libraries() const {
    return libraries_;
  }
  const std::map<WorkerId, Worker>& workers() const { return workers_; }
  const hash::HashRing& ring() const { return ring_; }
  const AffinityIndex& affinity() const { return affinity_index_; }
  std::size_t warm_instances() const { return warm_; }
  std::size_t queued_tasks() const { return queued_tasks_; }
  /// Ring walks made so far (task and instance placements); a request the
  /// free-room summary rules out makes none.
  std::uint64_t ring_walks() const { return ring_walks_; }
  /// Staging or installing instances on `worker`.
  std::size_t PendingOn(WorkerId worker) const;

  /// Audit of a settled core: no task or call queued, nothing running, in
  /// transit or reserved; affinity, the warm count, the library sums and
  /// the free-room summary equal to what the tables imply; per-worker claims
  /// (instances and tasks) that exactly explain each allocator.
  /// CheckQuiescent reports these texts.
  AuditReport Audit() const;

 private:
  /// The workers' free room: per resource (cores, memory, disk, then 1 for
  /// a fully idle worker), free amount -> workers with exactly that much.
  /// A request above the largest amount of some resource fits on no worker,
  /// so it fails without a ring walk; one within them all may still fail.
  struct FreeRoom {
    void Count(const ResourceAllocator& alloc, int sign);  // add +1, drop -1
    bool MayFit(const Resources& request) const;
    std::array<std::map<std::uint64_t, std::size_t>, 4> workers;
  };

  /// Queued tasks of one request shape, oldest first.
  struct TaskShape {
    struct Entry {
      TaskId task = 0;
      std::uint64_t key = 0;
      std::uint64_t seq = 0;  // submission order across shapes
    };
    Resources request;
    std::deque<Entry> queue;
  };

  struct Claim {
    WorkerId id = 0;
    Worker* worker = nullptr;
    Resources claimed;
  };
  /// Claims `request` on the first worker with room on the ring walk from
  /// `key`; nullopt at once when the summary rules the request out.
  std::optional<Claim> ClaimFirstFit(std::uint64_t key,
                                     const Resources& request);
  /// Returns a claim, keeping the summary in step.
  void Unclaim(Worker& worker, const Resources& claimed);
  void PlaceTasks(std::vector<Decision>& out);
  /// Adds (`sign` +1) or withdraws (-1) an instance's share of its
  /// library's sums, idle set and load order, by its state.
  static void Share(const Instance& instance, Library& library, int sign);
  /// Share() plus the affinity index and the warm count.
  void Account(const Instance& instance, Library& library, int sign);
  AutoscaleSignal Signal(const Library& library, bool with_room) const;
  void ServeQueue(const std::string& name, Library& library,
                  const RouteHooks& hooks,
                  std::optional<Resources>& no_capacity,
                  std::vector<Decision>& out);
  bool DispatchOnce(Library& library, const RouteHooks& hooks,
                    std::vector<Decision>& out);
  /// Moves up to min(queue, free slots, kMaxBatch) calls onto `instance`.
  std::size_t Take(Instance& instance, Library& library,
                   const RouteHooks& hooks, std::vector<Decision>& out);
  bool Deploy(const std::string& name, Library& library,
              std::vector<Decision>& out);
  bool Evict(const std::string& for_library, std::vector<Decision>& out);

  /// Room an eviction freed for `library`, waiting for the next Pump.
  struct Reservation {
    std::string library;
    WorkerId worker = 0;
  };

  SchedulerConfig config_;
  std::vector<TaskShape> task_shapes_;  // one per request shape queued
  std::size_t queued_tasks_ = 0;
  std::uint64_t next_task_seq_ = 0;
  std::map<std::string, Library> libraries_;
  std::map<LibraryInstanceId, Instance> instance_table_;
  std::map<WorkerId, Worker> workers_;
  FreeRoom room_;
  std::uint64_t ring_walks_ = 0;
  std::vector<Reservation> reserved_;  // in removal order
  std::vector<LibraryInstanceId> fresh_;  // ready since the last pass
  hash::HashRing ring_;
  AffinityIndex affinity_index_;
  std::size_t warm_ = 0;
  LibraryInstanceId next_instance_id_ = 1;
  bool capacity_memo_ = true;
};

}  // namespace vinelet::core
