// Scheduling: carrying out the control core's decisions — task placements,
// batched invocation dispatch, instance deploys and evictions.
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
  // One control-core pass: queued tasks first, then the library queues.
  Carry(core_.Pump(route_));
  // The warm-instance gauge is a copy of the core's count, published after
  // every pass (and by the quiescence audit, which may run between passes).
  m_.affinity_warm_instances->Set(static_cast<double>(core_.warm_instances()));
}

void Manager::QueueTask(Task& task) {
  task.worker = 0;
  task.pending_files = 0;
  task.queued_s = Now();
  // The ring walk starts at the function's hash, so repeated submissions
  // of the same function land where its cached context already is.
  core_.SubmitTask(task.spec.id,
                   hash::ContentId::OfText(task.spec.function_name).Prefix64(),
                   task.spec.resources);
}

void Manager::StartTask(const ControlCore::Decision& place) {
  Task& task = tasks_.at(place.task);
  task.worker = place.worker;
  task.staged_at = Now();
  task.trace = telemetry_->tracer.EmitLinked(
      task.trace, telemetry::Phase::kDispatch, "task", "manager", place.task,
      task.queued_s, task.staged_at);
  for (const auto& decl : task.spec.inputs) {
    if (replicas_.HasReplica(decl.id, task.worker)) continue;
    if (StageFile(decl, task.worker, Waiter{false, place.task}, task.trace))
      ++task.pending_files;
  }
  if (task.pending_files == 0) DispatchTask(task);
}

void Manager::Carry(const std::vector<ControlCore::Decision>& decisions) {
  using Kind = ControlCore::Decision::Kind;
  for (const ControlCore::Decision& decision : decisions) {
    switch (decision.kind) {
      case Kind::kTask:
        StartTask(decision);
        break;
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
                           std::vector<LibraryInstanceId>& candidates) {
  // Ref-aware placement: among warm instances, keep only the ones whose
  // worker already holds the most ref-argument bytes of the next call —
  // co-locating consumer with replica makes the peer fetch disappear.
  // Least-loaded still breaks ties within the kept subset.
  const PendingCall& front = calls_.at(id);
  if (front.ref_args.empty()) return;
  std::vector<std::uint64_t> score(candidates.size(), 0);
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const WorkerId worker = core_.FindInstance(candidates[i])->worker;
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

void Manager::DispatchTask(Task& task) {
  const double now = Now();
  task.transfer_wait_s = now - task.staged_at;
  task.trace = telemetry_->tracer.EmitLinked(
      task.trace, telemetry::Phase::kTransfer, "task",
      "worker-" + std::to_string(task.worker), task.spec.id, task.staged_at,
      now);
  ExecuteTaskMsg msg;
  msg.task = task.spec;  // copy: a retry reuses the original
  msg.trace = task.trace;
  for (const auto& decl : task.inline_decls) {
    auto payload = manager_store_.Get(decl.id);
    if (!payload.ok()) {
      // Fully unwind the placement before resolving: leaving the task in
      // tasks_ and its claim in the core would let a later worker death
      // requeue this already-failed task and double-resolve its future
      // (stealing another waiter's FinishOne).
      const TaskId id = task.spec.id;
      core_.ReleaseTask(task.worker, id);
      task.future->Resolve(payload.status());
      FinishOne();
      tasks_.erase(id);  // `task` is dangling past this point
      return;
    }
    msg.task.inline_files.emplace_back(decl, std::move(*payload));
  }
  (void)SendTo(task.worker, msg);
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
