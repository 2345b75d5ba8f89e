// Scheduling: admission of pending tasks and library calls, context-
// affinity placement, batched invocation dispatch, instance deploys,
// and closed-loop library autoscaling decisions.
#include "core/manager.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"

namespace vinelet::core {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Scheduling.
// ---------------------------------------------------------------------------

void Manager::TrySchedule() {
  StartParkedTransfers();
  // Stateless tasks: first-fit in FIFO order with a single stable compaction
  // pass — scheduled tasks are dropped by moving the survivors forward once,
  // instead of an O(queue) mid-deque erase per placement (quadratic when a
  // large backlog drains).  The whole sweep early-outs when there is nothing
  // to place or nowhere to place it, and the compaction itself only runs
  // when at least one task actually left the queue — the common idle pass
  // (every worker busy) costs the placement probes and nothing else.
  if (!task_queue_.empty() && !workers_.empty()) {
    std::size_t keep = 0;
    bool placed = false;
    for (std::size_t i = 0; i < task_queue_.size(); ++i) {
      if (TryScheduleTask(task_queue_[i])) {
        placed = true;
      } else {
        if (keep != i) task_queue_[keep] = std::move(task_queue_[i]);
        ++keep;
      }
    }
    if (placed)
      task_queue_.erase(
          task_queue_.begin() + static_cast<std::ptrdiff_t>(keep),
          task_queue_.end());
  }
  // Function calls, per library.
  std::vector<std::string> names;
  names.reserve(libraries_.size());
  for (const auto& [name, info] : libraries_) {
    if (!info.queue.empty()) names.push_back(name);
  }
  for (const auto& name : names) TryScheduleLibrary(name);
}

bool Manager::TryScheduleTask(PendingTask& task) {
  // Walk the ring from the function's hash so repeated submissions of the
  // same function land where its cached context already is.
  const auto order = ring_.WalkFrom(
      hash::ContentId::OfText(task.spec.function_name).Prefix64());
  for (WorkerId worker_id : order) {
    auto it = workers_.find(worker_id);
    if (it == workers_.end()) continue;
    if (!it->second.alloc.CanAllocate(task.spec.resources)) continue;

    auto claimed = it->second.alloc.Allocate(task.spec.resources);
    if (!claimed.ok()) continue;

    RunningTask running;
    running.task = std::move(task);
    running.worker = worker_id;
    running.claimed = *claimed;
    running.staged_at = Now();
    const TaskId id = running.task.spec.id;
    running.task.trace = telemetry_->tracer.EmitLinked(
        running.task.trace, telemetry::Phase::kDispatch, "task", "manager", id,
        running.task.queued_s, running.staged_at);

    for (const auto& decl : running.task.spec.inputs) {
      if (replicas_.HasReplica(decl.id, worker_id)) continue;
      if (StageFile(decl, worker_id, Waiter{false, id}, running.task.trace))
        ++running.pending_files;
    }
    it->second.running_tasks.insert(id);
    auto [placed_it, _] = running_tasks_.emplace(id, std::move(running));
    if (placed_it->second.pending_files == 0) DispatchTask(placed_it->second);
    return true;
  }
  return false;
}

AutoscaleSignal Manager::BuildAutoscaleSignal(
    const std::string& library_name) const {
  AutoscaleSignal signal;
  auto lib_it = libraries_.find(library_name);
  if (lib_it != libraries_.end()) {
    signal.queue_depth = lib_it->second.queue.size();
    for (const auto& [_, worker] : workers_) {
      if (worker.alloc.CanAllocate(lib_it->second.spec.resources))
        ++signal.workers_with_room;
    }
  }
  std::uint64_t served = 0;
  for (const auto& [_, instance] : instances_) {
    if (instance.library != library_name) continue;
    switch (instance.state) {
      case InstanceState::kReady:
        ++signal.ready_instances;
        signal.free_slots += instance.slots - instance.slots_in_use;
        served += instance.served;
        break;
      case InstanceState::kStaging:
      case InstanceState::kInstalling:
        ++signal.pending_instances;
        signal.pending_slots += instance.slots;
        break;
      case InstanceState::kDraining:
        break;
    }
  }
  // Fig 11 share value for this library: invocations served per warm
  // instance, computed from the per-instance counters already maintained
  // for introspection.
  if (signal.ready_instances > 0)
    signal.share_value = static_cast<double>(served) /
                         static_cast<double>(signal.ready_instances);
  return signal;
}

void Manager::TryScheduleLibrary(const std::string& library_name) {
  auto it = libraries_.find(library_name);
  if (it == libraries_.end()) return;
  LibraryInfo& info = it->second;

  while (!info.queue.empty()) {
    if (TryDispatchCall(info)) continue;
    // No warm slot took the call: close the loop through the autoscaler.
    // A displacing deploy requires the per-instance backlog to cross the
    // steal threshold, so small backlogs drain through the affinity set
    // instead of displacing warm capacity elsewhere.
    const AutoscaleSignal signal = BuildAutoscaleSignal(library_name);
    if (DecideAutoscale(config_.scheduler, signal) != AutoscaleAction::kDeploy)
      break;  // capacity is on the way
    if (TryDeployInstance(library_name)) {
      m_.autoscale_deploys->Add();
      continue;
    }
    // No worker has room: reclaim an idle library of another function
    // (§3.5.2 empty-library eviction) and wait for the removal.
    TryEvictEmptyLibrary(library_name);
    break;
  }
}

bool Manager::TryDispatchCall(LibraryInfo& info) {
  if (info.queue.empty()) return false;
  // Context affinity: least-loaded warm instance via the shared policy
  // helper (ties break to the lowest instance id — deterministic, and
  // identical to the simulator's choice).
  std::vector<DispatchCandidate> candidates;
  std::vector<InstanceInfo*> backing;
  for (auto& [_, instance] : instances_) {
    if (instance.library != info.spec.name) continue;
    if (instance.state != InstanceState::kReady) continue;
    candidates.push_back({instance.id, instance.slots - instance.slots_in_use});
    backing.push_back(&instance);
  }
  // Ref-aware placement: among warm instances, keep only the ones whose
  // worker already holds the most ref-argument bytes of the next call —
  // co-locating consumer with replica makes the peer fetch disappear.
  // Least-loaded still breaks ties within the kept subset.
  if (!info.queue.front().ref_args.empty() && backing.size() > 1) {
    const PendingCall& front = info.queue.front();
    std::vector<std::uint64_t> score(backing.size(), 0);
    std::uint64_t best = 0;
    for (std::size_t i = 0; i < backing.size(); ++i) {
      for (const RefArg& arg : front.ref_args)
        if (replicas_.HasReplica(arg.ref.id, backing[i]->worker))
          score[i] += arg.ref.size;
      best = std::max(best, score[i]);
    }
    if (best > 0) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < backing.size(); ++i) {
        if (score[i] != best) continue;
        candidates[keep] = candidates[i];
        backing[keep] = backing[i];
        ++keep;
      }
      candidates.resize(keep);
      backing.resize(keep);
    }
  }
  const std::size_t pick =
      PickLeastLoaded(candidates.data(), candidates.size());
  if (pick == kNoCandidate) return false;
  return DispatchCallsTo(*backing[pick], info.queue) > 0;
}

std::size_t Manager::DispatchCallsTo(InstanceInfo& instance,
                                     std::deque<PendingCall>& queue) {
  // Consumers whose ref arguments lost every replica are unrecoverable (the
  // producing invocation already resolved); fail them here instead of
  // burning retry attempts on fetches that can never succeed.
  while (!queue.empty()) {
    std::string lost;
    for (const RefArg& arg : queue.front().ref_args) {
      if (replicas_.ReplicaCount(arg.ref.id) == 0) {
        lost = arg.ref.id.ShortHex();
        break;
      }
    }
    if (lost.empty()) break;
    PendingCall call = std::move(queue.front());
    queue.pop_front();
    SettleCallRefs(call);
    call.future->Resolve(
        DataLossError("every replica of ref argument " + lost + " was lost"));
    FinishOne();
  }

  const std::size_t free_slots = instance.slots - instance.slots_in_use;
  const std::size_t max_batch =
      std::max<std::uint32_t>(1, config_.scheduler.max_batch);
  const std::size_t take =
      std::min({queue.size(), free_slots, max_batch});
  if (take == 0) return 0;
  const WorkerId worker = instance.worker;

  auto pop_next = [&]() {
    PendingCall call = std::move(queue.front());
    queue.pop_front();
    ++instance.slots_in_use;
    // The call whose trace this instance adopted waited on its install; its
    // dispatch span starts at readiness so it does not cover the install
    // spans of the same trace.
    const bool adopted = call.trace.valid() &&
                         call.trace.trace_id == instance.trace.trace_id;
    call.trace = telemetry_->tracer.EmitLinked(
        call.trace, telemetry::Phase::kDispatch, "invocation", "manager",
        call.id,
        adopted ? std::max(call.queued_s, instance.ready_s) : call.queued_s,
        Now());
    RunInvocationMsg msg;
    msg.id = call.id;
    msg.instance_id = instance.id;
    msg.function_name = call.function;
    msg.args = call.args;
    // Stamp each ref argument with the replica to fetch from (0 = the
    // target already holds it), and remember the stamp on the running call
    // so a source death can cancel exactly the fetches it strands.
    for (RefArg& arg : call.ref_args) {
      arg.source = replicas_.HasReplica(arg.ref.id, worker)
                       ? 0
                       : PickRefSource(arg.ref.id, worker);
    }
    msg.ref_args = call.ref_args;
    msg.trace = call.trace;
    instance.running.emplace(call.id, std::move(call));
    return msg;
  };

  m_.dispatch_batch_size->Observe(static_cast<double>(take));
  if (take == 1) {
    // Single call: the legacy one-message path, no batch framing.
    // A failed send means the worker died; ProcessDeadWorkers requeues.
    (void)SendTo(worker, pop_next());
    return 1;
  }
  RunInvocationBatchMsg batch;
  batch.instance_id = instance.id;
  batch.items.reserve(take);
  for (std::size_t i = 0; i < take; ++i) batch.items.push_back(pop_next());
  (void)SendTo(worker, batch);
  return take;
}

bool Manager::TryDeployInstance(const std::string& library_name) {
  auto lib_it = libraries_.find(library_name);
  if (lib_it == libraries_.end()) return false;
  const LibrarySpec& spec = lib_it->second.spec;

  const auto order =
      ring_.WalkFrom(hash::ContentId::OfText(library_name).Prefix64());
  for (WorkerId worker_id : order) {
    auto it = workers_.find(worker_id);
    if (it == workers_.end()) continue;
    if (!it->second.alloc.CanAllocate(spec.resources)) continue;
    auto claimed = it->second.alloc.Allocate(spec.resources);
    if (!claimed.ok()) continue;

    // Work stealing: recruiting a worker outside the warm affinity set while
    // the library already has warm instances elsewhere.
    if (affinity_.CountFor(library_name) > 0 &&
        !affinity_.Contains(library_name, worker_id))
      m_.steals->Add();

    InstanceInfo instance;
    instance.id = next_instance_id_++;
    instance.library = library_name;
    instance.worker = worker_id;
    instance.claimed = *claimed;
    instance.slots = spec.slots;
    instance.state = InstanceState::kStaging;
    // Attribute the deployment to the call that triggered it, so library
    // staging and setup land in that invocation's trace.
    if (!lib_it->second.queue.empty())
      instance.trace = lib_it->second.queue.front().trace;

    for (const auto& decl : spec.inputs) {
      if (replicas_.HasReplica(decl.id, worker_id)) continue;
      if (StageFile(decl, worker_id, Waiter{true, instance.id},
                    instance.trace))
        ++instance.pending_files;
    }
    it->second.instances.insert(instance.id);
    auto [placed_it, _] = instances_.emplace(instance.id, std::move(instance));
    if (placed_it->second.pending_files == 0)
      DispatchInstall(placed_it->second);
    return true;
  }
  return false;
}

bool Manager::TryEvictEmptyLibrary(const std::string& for_library) {
  // Fig 11 eviction order: among idle instances, evict the one whose
  // library shows the poorest share value first — DecideAutoscale flags
  // those as preferred victims (kEvict) — then the least-served instance.
  // A proven library is only displaced when no poor one remains, because
  // evicting it destroys the amortization retention paid for.
  InstanceInfo* victim = nullptr;
  bool victim_preferred = false;
  for (auto& [_, instance] : instances_) {
    if (instance.library == for_library) continue;
    if (instance.state != InstanceState::kReady) continue;
    if (instance.slots_in_use != 0) continue;
    auto lib_it = libraries_.find(instance.library);
    if (lib_it != libraries_.end() && !lib_it->second.queue.empty()) continue;

    const bool preferred =
        DecideAutoscale(config_.scheduler,
                        BuildAutoscaleSignal(instance.library)) ==
        AutoscaleAction::kEvict;
    if (victim == nullptr || (preferred && !victim_preferred) ||
        (preferred == victim_preferred && instance.served < victim->served)) {
      victim = &instance;
      victim_preferred = preferred;
    }
  }
  if (victim != nullptr) {
    InstanceInfo& instance = *victim;
    instance.state = InstanceState::kDraining;
    affinity_.Remove(instance.library, instance.worker);
    SyncAffinityGauge();
    m_.libraries_evicted->Add();
    m_.autoscale_evicts->Add();
    VLOG_INFO("manager") << "evicting empty library " << instance.library
                         << "#" << instance.id << " from worker "
                         << instance.worker << " for " << for_library;
    (void)SendTo(instance.worker, RemoveLibraryMsg{instance.id});
    return true;
  }
  return false;
}

void Manager::DispatchTask(RunningTask& running) {
  const double now = Now();
  running.transfer_wait_s = now - running.staged_at;
  running.task.trace = telemetry_->tracer.EmitLinked(
      running.task.trace, telemetry::Phase::kTransfer, "task",
      "worker-" + std::to_string(running.worker), running.task.spec.id,
      running.staged_at, now);
  ExecuteTaskMsg msg;
  msg.task = running.task.spec;  // copy: a retry reuses the original
  msg.trace = running.task.trace;
  for (const auto& decl : running.task.inline_decls) {
    auto payload = manager_store_.Get(decl.id);
    if (!payload.ok()) {
      // Fully unwind the placement before resolving: leaving the task in
      // running_tasks_ and the worker's running set would let a later
      // worker death requeue this already-failed task and double-resolve
      // its future (stealing another waiter's FinishOne).
      const TaskId id = running.task.spec.id;
      auto worker_it = workers_.find(running.worker);
      if (worker_it != workers_.end()) {
        worker_it->second.running_tasks.erase(id);
        Status released = worker_it->second.alloc.Release(running.claimed);
        if (!released.ok()) {
          VLOG_ERROR("manager") << "release: " << released.ToString();
        }
      }
      running.task.future->Resolve(payload.status());
      FinishOne();
      running_tasks_.erase(id);  // `running` is dangling past this point
      return;
    }
    msg.task.inline_files.emplace_back(decl, std::move(*payload));
  }
  (void)SendTo(running.worker, msg);
}

void Manager::DispatchInstall(InstanceInfo& instance) {
  auto lib_it = libraries_.find(instance.library);
  if (lib_it == libraries_.end()) return;
  instance.state = InstanceState::kInstalling;
  instance.trace = telemetry_->tracer.EmitLinked(
      instance.trace, telemetry::Phase::kDispatch, "library",
      "worker-" + std::to_string(instance.worker), instance.id, Now(), Now());
  InstallLibraryMsg msg{lib_it->second.spec, instance.id, instance.trace};
  (void)SendTo(instance.worker, msg);
}

void Manager::FeedInstance(InstanceInfo& instance) {
  if (instance.state != InstanceState::kReady) return;
  auto lib_it = libraries_.find(instance.library);
  if (lib_it == libraries_.end()) return;
  auto& queue = lib_it->second.queue;
  // Each round folds up to max_batch calls into one frame; loop in case the
  // instance has more free slots than one batch covers.
  while (!queue.empty() && instance.slots_in_use < instance.slots) {
    if (DispatchCallsTo(instance, queue) == 0) return;
  }
}

void Manager::SyncAffinityGauge() {
  std::size_t warm = 0;
  for (const auto& [library, workers] : affinity_.table())
    for (const auto& [worker, count] : workers) warm += count;
  m_.affinity_warm_instances->Set(static_cast<double>(warm));
}

}  // namespace vinelet::core
