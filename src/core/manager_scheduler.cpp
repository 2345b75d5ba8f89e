// Scheduling: admission of pending tasks, and carrying out the control
// core's library decisions — batched invocation dispatch, instance deploys
// and evictions.
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
  // Stateless tasks: first-fit in FIFO order with a single stable compaction
  // pass — scheduled tasks are dropped by moving the survivors forward once,
  // instead of an O(queue) mid-deque erase per placement (quadratic when a
  // large backlog drains).  The whole sweep early-outs when there is nothing
  // to place or nowhere to place it, and the compaction itself only runs
  // when at least one task actually left the queue — the common idle pass
  // (every worker busy) costs the placement probes and nothing else.
  if (!task_queue_.empty() && !core_.workers().empty()) {
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
  // Function calls: one control-core pass over the library queues.
  Carry(core_.Pump(route_));
  // The warm-instance gauge is a copy of the core's count, published after
  // every pass (and by the quiescence audit, which may run between passes).
  m_.affinity_warm_instances->Set(static_cast<double>(core_.warm_instances()));
}

bool Manager::TryScheduleTask(PendingTask& task) {
  // Walk the ring from the function's hash so repeated submissions of the
  // same function land where its cached context already is.
  const auto worker_id =
      core_.PlaceTask(task.spec.id, task.ring_key, task.spec.resources);
  if (!worker_id) return false;

  RunningTask running;
  running.task = std::move(task);
  running.worker = *worker_id;
  running.staged_at = Now();
  const TaskId id = running.task.spec.id;
  running.task.trace = telemetry_->tracer.EmitLinked(
      running.task.trace, telemetry::Phase::kDispatch, "task", "manager", id,
      running.task.queued_s, running.staged_at);

  for (const auto& decl : running.task.spec.inputs) {
    if (replicas_.HasReplica(decl.id, *worker_id)) continue;
    if (StageFile(decl, *worker_id, Waiter{false, id}, running.task.trace))
      ++running.pending_files;
  }
  auto [placed_it, _] = running_tasks_.emplace(id, std::move(running));
  if (placed_it->second.pending_files == 0) DispatchTask(placed_it->second);
  return true;
}

void Manager::Carry(const std::vector<ControlCore::Decision>& decisions) {
  using Kind = ControlCore::Decision::Kind;
  for (const ControlCore::Decision& decision : decisions) {
    switch (decision.kind) {
      case Kind::kDispatch:
        SendCalls(decision);
        break;
      case Kind::kDeploy:
        if (decision.steal) m_.steals->Add();
        m_.autoscale_deploys->Add();
        StageInstance(decision);
        break;
      case Kind::kEvict:
        m_.libraries_evicted->Add();
        m_.autoscale_evicts->Add();
        VLOG_INFO("manager") << "evicting empty library " << decision.library
                             << "#" << decision.instance << " from worker "
                             << decision.worker;
        (void)SendTo(decision.worker, RemoveLibraryMsg{decision.instance});
        break;
    }
  }
}

void Manager::SendCalls(const ControlCore::Decision& dispatch) {
  const InstanceInfo& info = instance_info_.at(dispatch.instance);
  const WorkerId worker = dispatch.worker;
  auto message_for = [&](InvocationId id) {
    PendingCall& call = calls_.at(id);
    // The call whose trace this instance adopted waited on its install; its
    // dispatch span starts at readiness so it does not cover the install
    // spans of the same trace.
    const bool adopted =
        call.trace.valid() && call.trace.trace_id == info.trace.trace_id;
    call.trace = telemetry_->tracer.EmitLinked(
        call.trace, telemetry::Phase::kDispatch, "invocation", "manager",
        call.id,
        adopted ? std::max(call.queued_s, info.ready_s) : call.queued_s, Now());
    RunInvocationMsg msg;
    msg.id = call.id;
    msg.instance_id = dispatch.instance;
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
    return msg;
  };

  m_.dispatch_batch_size->Observe(static_cast<double>(dispatch.calls.size()));
  if (dispatch.calls.size() == 1) {
    // Single call: the legacy one-message path, no batch framing.
    // A failed send means the worker died; ProcessDeadWorkers requeues.
    (void)SendTo(worker, message_for(dispatch.calls.front()));
    return;
  }
  RunInvocationBatchMsg batch;
  batch.instance_id = dispatch.instance;
  batch.items.reserve(dispatch.calls.size());
  for (InvocationId id : dispatch.calls) batch.items.push_back(message_for(id));
  (void)SendTo(worker, batch);
}

void Manager::StageInstance(const ControlCore::Decision& deploy) {
  const LibrarySpec& spec = libraries_.at(deploy.library);
  InstanceInfo& info = instance_info_[deploy.instance];
  // Attribute the deployment to the call that triggered it, so library
  // staging and setup land in that invocation's trace.
  auto call_it = calls_.find(deploy.calls.front());
  if (call_it != calls_.end()) info.trace = call_it->second.trace;
  for (const auto& decl : spec.inputs) {
    if (replicas_.HasReplica(decl.id, deploy.worker)) continue;
    if (StageFile(decl, deploy.worker, Waiter{true, deploy.instance},
                  info.trace))
      ++info.pending_files;
  }
  if (info.pending_files == 0) DispatchInstall(deploy.instance);
}

bool Manager::FailUnrunnable(InvocationId id) {
  // The producing invocation already resolved, so a ref argument with no
  // replica left can never be fetched; fail the call here instead of
  // burning retry attempts on fetches that cannot succeed.
  auto it = calls_.find(id);
  if (it == calls_.end()) return false;
  PendingCall& call = it->second;
  std::string lost;
  for (const RefArg& arg : call.ref_args) {
    if (replicas_.ReplicaCount(arg.ref.id) == 0) {
      lost = arg.ref.id.ShortHex();
      break;
    }
  }
  if (lost.empty()) return false;
  SettleCallRefs(call);
  call.future->Resolve(
      DataLossError("every replica of ref argument " + lost + " was lost"));
  FinishOne();
  calls_.erase(it);
  return true;
}

void Manager::NarrowByRefs(InvocationId id,
                           std::vector<DispatchCandidate>& candidates) {
  // Ref-aware placement: among warm instances, keep only the ones whose
  // worker already holds the most ref-argument bytes of the next call —
  // co-locating consumer with replica makes the peer fetch disappear.
  // Least-loaded still breaks ties within the kept subset.
  const PendingCall& front = calls_.at(id);
  if (front.ref_args.empty()) return;
  std::vector<std::uint64_t> score(candidates.size(), 0);
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const WorkerId worker =
        core_.FindInstance(candidates[i].instance_id)->worker;
    for (const RefArg& arg : front.ref_args)
      if (replicas_.HasReplica(arg.ref.id, worker)) score[i] += arg.ref.size;
    best = std::max(best, score[i]);
  }
  if (best == 0) return;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i)
    if (score[i] == best) candidates[keep++] = candidates[i];
  candidates.resize(keep);
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
      core_.ReleaseTask(running.worker, id);
      running.task.future->Resolve(payload.status());
      FinishOne();
      running_tasks_.erase(id);  // `running` is dangling past this point
      return;
    }
    msg.task.inline_files.emplace_back(decl, std::move(*payload));
  }
  (void)SendTo(running.worker, msg);
}

void Manager::DispatchInstall(LibraryInstanceId id) {
  const ControlCore::Instance* instance = core_.FindInstance(id);
  if (instance == nullptr || !core_.Installing(id)) return;
  InstanceInfo& info = instance_info_.at(id);
  info.trace = telemetry_->tracer.EmitLinked(
      info.trace, telemetry::Phase::kDispatch, "library",
      "worker-" + std::to_string(instance->worker), id, Now(), Now());
  InstallLibraryMsg msg{libraries_.at(instance->library), id, info.trace};
  (void)SendTo(instance->worker, msg);
}

}  // namespace vinelet::core
