#include "core/scheduler.hpp"

namespace vinelet::core {

void AffinityIndex::Add(const std::string& library, WorkerId worker) {
  ++table_[library][worker];
}

void AffinityIndex::Remove(const std::string& library, WorkerId worker) {
  auto it = table_.find(library);
  if (it == table_.end()) return;
  auto worker_it = it->second.find(worker);
  if (worker_it == it->second.end()) return;
  if (--worker_it->second == 0) it->second.erase(worker_it);
  if (it->second.empty()) table_.erase(it);
}

void AffinityIndex::RemoveWorker(WorkerId worker) {
  for (auto it = table_.begin(); it != table_.end();) {
    it->second.erase(worker);
    if (it->second.empty())
      it = table_.erase(it);
    else
      ++it;
  }
}

const AffinityIndex::WorkerCounts* AffinityIndex::Get(
    const std::string& library) const {
  auto it = table_.find(library);
  return it == table_.end() ? nullptr : &it->second;
}

bool AffinityIndex::Contains(const std::string& library,
                             WorkerId worker) const {
  const WorkerCounts* counts = Get(library);
  return counts != nullptr && counts->count(worker) > 0;
}

std::size_t AffinityIndex::CountFor(const std::string& library) const {
  const WorkerCounts* counts = Get(library);
  if (counts == nullptr) return 0;
  std::size_t total = 0;
  for (const auto& [worker, instances] : *counts) total += instances;
  return total;
}

AutoscaleAction DecideAutoscale(const SchedulerConfig& config,
                                const AutoscaleSignal& signal) {
  if (signal.queue_depth == 0) {
    // Idle.  An instance set whose share value (invocations served per warm
    // instance, Fig 11) never reached the floor is a preferred eviction
    // victim; a proven one is worth retaining for warm starts.  Callers
    // additionally gate eviction on the instance being idle and on another
    // library actually being starved.
    if (signal.ready_instances > 0 && signal.share_value < kShareFloor)
      return AutoscaleAction::kEvict;
    return AutoscaleAction::kHold;
  }

  // Backlog fits in warm or in-flight capacity: let affinity drain it.
  const std::size_t upcoming = signal.free_slots + signal.pending_slots;
  if (signal.queue_depth <= upcoming) return AutoscaleAction::kHold;

  // Spare, uncommitted capacity somewhere in the cluster: expanding there
  // displaces no warm instance, so take it as soon as the backlog outruns
  // the capacity already in flight.
  if (signal.workers_with_room > 0) return AutoscaleAction::kDeploy;

  // Fully committed cluster: one more instance must displace another
  // library's warm context.  Each instance — warm or already in flight —
  // tolerates a backlog of `steal_threshold` before that displacement is
  // worth it, so a backlog of Q settles at ~Q/steal_threshold instances
  // instead of one per queued invocation.  A cold library with nothing in
  // flight tolerates no backlog and displaces immediately.
  const std::size_t tolerated =
      (signal.ready_instances + signal.pending_instances) *
      config.steal_threshold;
  if (signal.queue_depth > tolerated) return AutoscaleAction::kDeploy;

  // Saturation override: an absolute backlog this deep always keeps at
  // least one deploy in flight, however tolerant the warm set is sized.
  if (signal.queue_depth >= kAutoscaleQueueHigh &&
      signal.pending_instances == 0)
    return AutoscaleAction::kDeploy;

  return AutoscaleAction::kHold;
}

}  // namespace vinelet::core
