// Fault handling: call requeue, waiter failure, and full worker-death
// recovery (reschedule, transfer repair, broadcast repair).
#include "core/manager.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"

namespace vinelet::core {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Fault handling.
// ---------------------------------------------------------------------------

void Manager::RequeueCall(PendingCall& call) {
  call.queued_s = Now();
  core_.Requeue(call.library, call.id);
}

void Manager::FailWaiter(const Waiter& waiter, const Status& status) {
  if (waiter.is_instance) {
    // Discard the staging instance; its queued calls stay in the library
    // queue and redeploy elsewhere on the next scheduling pass.
    (void)core_.Remove(waiter.id);
    instance_info_.erase(waiter.id);
  } else {
    auto task_it = tasks_.find(waiter.id);
    if (task_it == tasks_.end() || task_it->second.worker == 0) return;
    core_.ReleaseTask(task_it->second.worker, waiter.id);
    task_it->second.future->Resolve(status);
    FinishOne();
    tasks_.erase(task_it);
  }
}

void Manager::ProcessDeadWorkers() {
  while (!pending_dead_.empty()) {
    const WorkerId worker = *pending_dead_.begin();
    pending_dead_.erase(pending_dead_.begin());
    OnWorkerDead(worker);
  }
}

void Manager::OnWorkerDead(WorkerId worker) {
  if (!core_.workers().contains(worker)) return;
  // The control core's death sweep: the worker's claims, ring points,
  // instances and affinity entries go; its tasks and its instances' calls
  // come back to be retried below.
  ControlCore::WorkerLoss loss = core_.RemoveWorker(worker);
  latency_s_.erase(worker);
  VLOG_INFO("manager") << "worker " << worker << " left ("
                       << loss.tasks.size() << " tasks, "
                       << loss.instances.size() << " instances)";
  telemetry_->flight.Record("worker-dead", "", 0, worker, loss.tasks.size());
  // A status query can't wait on a dead worker; drop its (never-arriving)
  // entry and finalize if it was the last one outstanding.
  if (status_query_.active && status_query_.awaiting.erase(worker) != 0) {
    auto& entries = status_query_.status.workers;
    std::erase_if(entries,
                  [&](const WorkerStatus& w) { return w.id == worker; });
    if (status_query_.awaiting.empty()) FinalizeStatusQuery();
  }

  // Pass-by-reference recovery, part 1: consumers parked mid-fetch on the
  // dead replica would wait forever — cancel exactly the fetches whose
  // dispatch stamped this worker as the source.  The cancelled invocations
  // fail back to the manager, requeue, and re-dispatch against a surviving
  // replica (or fail with kDataLoss below if none is left).
  for (const auto& [_, instance] : core_.instances()) {
    std::set<hash::ContentId> cancel;
    for (InvocationId id : instance.running)
      for (const RefArg& arg : calls_.at(id).ref_args)
        if (arg.source == worker) cancel.insert(arg.ref.id);
    for (const hash::ContentId& id : cancel)
      (void)SendTo(instance.worker, CancelFetchMsg{id});
  }

  replicas_.RemoveWorker(worker);

  // Part 2: refs whose last replica died are gone for good — forget them so
  // the audit sees a consistent table; their not-yet-dispatched consumers
  // fail with kDataLoss at dispatch time.
  for (auto ref_it = refs_.begin(); ref_it != refs_.end();) {
    if (replicas_.ReplicaCount(ref_it->first) == 0) {
      telemetry_->flight.Record("ref-lost", ref_it->first.ShortHex(), 0,
                                ref_it->first.Prefix64(), worker);
      ref_it = refs_.erase(ref_it);
    } else {
      ++ref_it;
    }
  }

  // Part 3: a FetchRef materialization served by the dead worker retries the
  // next holder; out of holders = data loss for its waiters.
  for (auto f_it = manager_fetches_.begin(); f_it != manager_fetches_.end();) {
    if (f_it->second.source != worker || AdvanceManagerFetch(f_it->second)) {
      ++f_it;
      continue;
    }
    for (auto& waiter : f_it->second.waiters)
      waiter->set_value(DataLossError("ref replica died and no other holder "
                                      "survives: " +
                                      f_it->second.ref.id.ShortHex()));
    f_it = manager_fetches_.erase(f_it);
  }
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    worker_count_ = core_.workers().size();
    wait_cv_.notify_all();
  }

  // Transfers touching the dead worker: destinations die with their
  // waiters (requeued below); transfers *sourced* from it restart from a
  // new source.
  std::vector<std::pair<TransferKey, Transfer>> resource;
  for (auto t_it = transfers_.begin(); t_it != transfers_.end();) {
    if (t_it->first.dest == worker) {
      replicas_.EndTransfer(t_it->second.source);
      t_it = transfers_.erase(t_it);
    } else if (!t_it->second.source.from_manager &&
               t_it->second.source.peer == worker) {
      replicas_.EndTransfer(t_it->second.source);
      resource.emplace_back(t_it->first, std::move(t_it->second));
      t_it = transfers_.erase(t_it);
    } else {
      ++t_it;
    }
  }
  for (auto& [key, transfer] : resource) {
    // Restage from the manager (it normally holds every declared payload).
    // When StageFile declines — or the fresh transfer is not found under
    // the key — the remaining waiters must be failed explicitly: silently
    // dropping them leaves their futures unresolved and hangs WaitAll.
    auto waiters = std::move(transfer.waiters);
    const Status lost =
        DataLossError("transfer source died and restage failed: " +
                      transfer.decl.name);
    bool first = true;
    bool staged = false;
    for (const Waiter& waiter : waiters) {
      if (first) {
        first = false;
        staged = StageFile(transfer.decl, key.dest, waiter, transfer.trace);
        if (!staged) FailWaiter(waiter, lost);
        continue;
      }
      auto new_it = staged ? transfers_.find(key) : transfers_.end();
      if (new_it != transfers_.end())
        new_it->second.waiters.push_back(waiter);
      else
        FailWaiter(waiter, lost);
    }
  }

  HandleBroadcastWorkerDeath(worker);

  for (TaskId id : loss.tasks) {
    auto task_it = tasks_.find(id);
    if (task_it == tasks_.end()) continue;
    Task& task = task_it->second;
    if (++task.attempts < config_.max_attempts) {
      m_.retries->Add();
      QueueTask(task);
    } else {
      task.future->Resolve(UnavailableError("worker died repeatedly"));
      FinishOne();
      tasks_.erase(task_it);
    }
  }

  for (const ControlCore::Instance& instance : loss.instances) {
    auto info = instance_info_.extract(instance.id);
    // A draining instance was counted active at LibraryReady and its
    // LibraryRemovedMsg (the usual decrement point) will never arrive from
    // a dead worker — decrement here for both states or the gauge drifts.
    if (instance.state == InstanceState::kReady ||
        instance.state == InstanceState::kDraining)
      m_.libraries_active->Set(
          std::max(0.0, m_.libraries_active->Value() - 1));
    if (!info.empty())
      m_.retained_context_bytes->Set(std::max(
          0.0, m_.retained_context_bytes->Value() -
                   static_cast<double>(info.mapped().context_memory)));
    for (InvocationId id : instance.running) {
      PendingCall& call = calls_.at(id);
      if (++call.attempts < config_.max_attempts) {
        m_.retries->Add();
        RequeueCall(call);
      } else {
        SettleCallRefs(call);
        call.future->Resolve(UnavailableError("worker died repeatedly"));
        FinishOne();
        calls_.erase(id);
      }
    }
  }
}

}  // namespace vinelet::core
