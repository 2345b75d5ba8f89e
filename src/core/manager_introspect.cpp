// Live introspection: cluster status scatter/gather over StatusRequest/
// StatusReply and the quiescence checker.
#include "core/manager.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"

namespace vinelet::core {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Live introspection.
// ---------------------------------------------------------------------------

namespace {

double RollingP95(const std::deque<double>& window) {
  if (window.empty()) return 0.0;
  std::vector<double> sorted(window.begin(), window.end());
  const auto rank = (sorted.size() - 1) * 95 / 100;
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return sorted[rank];
}

}  // namespace

void Manager::StartStatusQuery(StatusCmd cmd) {
  // A new query preempts an unfinished one: resolve the old promise with
  // whatever arrived so far rather than leaving its caller to time out.
  if (status_query_.active) FinalizeStatusQuery();

  status_query_ = StatusQuery{};
  status_query_.promise = std::move(cmd.promise);
  status_query_.active = true;

  ClusterStatus& status = status_query_.status;
  status.collected_s = Now();
  status.task_queue_depth = task_queue_.size();
  status.straggler_factor = config_.straggler_factor;
  for (const auto& [name, info] : libraries_)
    status.library_queues.push_back({name, info.queue.size()});
  status.scheduler.affinity_hits = m_.affinity_hits->Value();
  status.scheduler.affinity_misses = m_.affinity_misses->Value();
  status.scheduler.steals = m_.steals->Value();
  status.scheduler.autoscale_deploys = m_.autoscale_deploys->Value();
  status.scheduler.autoscale_evicts = m_.autoscale_evicts->Value();
  {
    const telemetry::HistogramSnapshot batches =
        m_.dispatch_batch_size->Snapshot();
    status.scheduler.batches_sent = batches.count;
    status.scheduler.avg_batch_size = batches.Mean();
    status.scheduler.max_batch_size =
        static_cast<std::uint64_t>(batches.max);
  }
  for (const auto& [library, workers] : affinity_.table()) {
    AffinitySetStatus set;
    set.library = library;
    for (const auto& [worker, count] : workers) set.workers.push_back(worker);
    status.scheduler.affinity_sets.push_back(std::move(set));
  }
  for (const auto& [id, state] : broadcasts_) {
    BroadcastStatus b;
    b.name = state.decl.name;
    b.id = id;
    b.num_chunks = state.num_chunks;
    b.pending.assign(state.pending.begin(), state.pending.end());
    status.broadcasts.push_back(std::move(b));
  }
  status.slo = slo_monitor_.Snapshot(Now());

  // Skeleton per worker with the manager-side latency view; the wire reply
  // fills in the worker-side fields.
  for (const auto& [id, state] : workers_) {
    WorkerStatus w;
    w.id = id;
    w.p95_latency_s = RollingP95(state.invocation_latency_s);
    w.latency_samples = state.invocation_latency_s.size();
    status.workers.push_back(std::move(w));
    status_query_.awaiting.insert(id);
  }
  for (auto it = status_query_.awaiting.begin();
       it != status_query_.awaiting.end();) {
    const WorkerId id = *it;
    if (SendTo(id, StatusRequestMsg{}).ok()) {
      ++it;
    } else {
      // Send failed: the worker is gone and will be reaped, but its reply
      // will never come — don't block the query on it.
      std::erase_if(status_query_.status.workers,
                    [&](const WorkerStatus& w) { return w.id == id; });
      it = status_query_.awaiting.erase(it);
    }
  }
  if (status_query_.awaiting.empty()) FinalizeStatusQuery();
}

void Manager::HandleStatusReply(WorkerId worker, const StatusReplyMsg& msg) {
  if (!status_query_.active) return;
  if (status_query_.awaiting.erase(worker) == 0) return;  // stale reply
  for (WorkerStatus& w : status_query_.status.workers) {
    if (w.id != worker) continue;
    w.inbox_depth = msg.inbox_depth;
    w.tasks_executed = msg.tasks_executed;
    w.cache = msg.cache;
    w.assemblies = msg.assemblies;
    w.libraries = msg.libraries;
    w.refs_held = msg.refs_held;
    w.p2p_fetch_bytes = msg.p2p_fetch_bytes;
    w.p2p_serve_bytes = msg.p2p_serve_bytes;
    w.relayed_result_bytes = msg.relayed_result_bytes;
    w.arena_hwm_bytes = msg.arena_hwm_bytes;
    break;
  }
  if (status_query_.awaiting.empty()) FinalizeStatusQuery();
}

void Manager::FinalizeStatusQuery() {
  if (!status_query_.active) return;
  ClusterStatus& status = status_query_.status;

  // Straggler detection: a worker whose rolling p95 exceeds
  // straggler_factor × the cluster median p95 (over workers with samples).
  std::vector<double> p95s;
  for (const WorkerStatus& w : status.workers)
    if (w.latency_samples > 0) p95s.push_back(w.p95_latency_s);
  if (!p95s.empty()) {
    const auto mid = p95s.size() / 2;
    std::nth_element(p95s.begin(),
                     p95s.begin() + static_cast<std::ptrdiff_t>(mid),
                     p95s.end());
    status.cluster_median_p95_s = p95s[mid];
    for (WorkerStatus& w : status.workers) {
      w.straggler = w.latency_samples > 0 && status.cluster_median_p95_s > 0 &&
                    w.p95_latency_s >
                        status.straggler_factor * status.cluster_median_p95_s;
    }
  }

  // Transport-level counters: which sockets the manager's traffic actually
  // rode, how much, and whether senders ever stalled on backpressure.
  status.connections = network_->ConnectionsSnapshot();

  status_query_.promise->set_value(std::move(status));
  status_query_ = StatusQuery{};
}

void Manager::RunQuiescenceCheck(QuiescenceCmd cmd) {
  // Reap deaths the transport has already signalled, so the audit sees the
  // settled state rather than a snapshot taken mid-recovery.
  ProcessDeadWorkers();

  QuiescenceReport report;
  auto violate = [&](std::string what) {
    report.quiescent = false;
    report.violations.push_back(std::move(what));
  };

  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    report.outstanding_futures = outstanding_;
  }
  if (report.outstanding_futures != 0)
    violate(std::to_string(report.outstanding_futures) +
            " submitted futures still unresolved");

  report.task_queue = task_queue_.size();
  if (report.task_queue != 0)
    violate(std::to_string(report.task_queue) + " tasks still queued");
  report.running_tasks = running_tasks_.size();
  if (report.running_tasks != 0)
    violate(std::to_string(report.running_tasks) +
            " entries leaked in running_tasks_");
  report.transfers = transfers_.size();
  if (report.transfers != 0)
    violate(std::to_string(report.transfers) +
            " transfers still in flight (or leaked)");
  report.broadcasts = broadcasts_.size();
  if (report.broadcasts != 0)
    violate(std::to_string(report.broadcasts) + " broadcasts still active");

  for (const auto& [name, info] : libraries_) {
    report.queued_calls += info.queue.size();
    if (!info.queue.empty())
      violate("library " + name + " still has " +
              std::to_string(info.queue.size()) + " queued calls");
  }

  // Instances may legitimately outlive the workload (retained context is
  // the point), but they must be settled: kReady, no running invocations,
  // no claimed slots, nothing mid-stage.  Transitional states are reported
  // so callers poll until removal/readiness lands.
  report.instances = instances_.size();
  std::size_t expected_active = 0;
  double expected_context_bytes = 0.0;
  for (const auto& [id, instance] : instances_) {
    const std::string label =
        "instance " + instance.library + "#" + std::to_string(id);
    report.running_invocations += instance.running.size();
    if (!instance.running.empty())
      violate(label + " still has " +
              std::to_string(instance.running.size()) +
              " running invocations");
    if (instance.slots_in_use != instance.running.size())
      violate(label + " slots_in_use=" +
              std::to_string(instance.slots_in_use) + " but " +
              std::to_string(instance.running.size()) +
              " running invocations");
    switch (instance.state) {
      case InstanceState::kStaging:
        violate(label + " still staging");
        break;
      case InstanceState::kInstalling:
        violate(label + " still installing");
        break;
      case InstanceState::kDraining:
        violate(label + " still draining");
        break;
      case InstanceState::kReady:
        if (instance.pending_files != 0)
          violate(label + " ready but pending_files=" +
                  std::to_string(instance.pending_files));
        break;
    }
    if (instance.state == InstanceState::kReady ||
        instance.state == InstanceState::kDraining) {
      ++expected_active;
      expected_context_bytes += static_cast<double>(instance.context_memory);
    }
    auto worker_it = workers_.find(instance.worker);
    if (worker_it == workers_.end() ||
        !worker_it->second.instances.contains(id))
      violate(label + " not linked to worker " +
              std::to_string(instance.worker));
  }

  // Gauges must equal the values recomputed from first principles.
  report.libraries_active_gauge =
      static_cast<std::uint64_t>(m_.libraries_active->Value());
  if (m_.libraries_active->Value() !=
      static_cast<double>(expected_active))
    violate("libraries_active gauge = " +
            std::to_string(report.libraries_active_gauge) + " but " +
            std::to_string(expected_active) + " ready/draining instances");
  report.retained_context_bytes_gauge =
      static_cast<std::uint64_t>(m_.retained_context_bytes->Value());
  if (m_.retained_context_bytes->Value() != expected_context_bytes)
    violate("retained_context_bytes gauge = " +
            std::to_string(report.retained_context_bytes_gauge) +
            " but instances retain " +
            std::to_string(static_cast<std::uint64_t>(
                expected_context_bytes)) +
            " bytes");

  // Affinity sets must equal what the instance table implies: exactly one
  // entry per kReady instance, keyed by its (library, worker).  A stale
  // entry (e.g. left behind by a worker death) would route invocations at
  // vanished context; a missing one hides warm capacity.
  AffinityIndex expected_affinity;
  for (const auto& [id, instance] : instances_)
    if (instance.state == InstanceState::kReady)
      expected_affinity.Add(instance.library, instance.worker);
  for (const auto& [library, workers] : affinity_.table()) {
    report.affinity_entries += workers.size();
    const AffinityIndex::WorkerCounts* expected =
        expected_affinity.Get(library);
    for (const auto& [worker, count] : workers) {
      std::uint32_t expected_count = 0;
      if (expected != nullptr) {
        auto expected_it = expected->find(worker);
        if (expected_it != expected->end())
          expected_count = expected_it->second;
      }
      if (expected_count == 0)
        violate("stale affinity entry: " + library + " -> worker " +
                std::to_string(worker) + " (no ready instance there)");
      else if (expected_count != count)
        violate("affinity count for " + library + " on worker " +
                std::to_string(worker) + " = " + std::to_string(count) +
                " but " + std::to_string(expected_count) +
                " ready instances");
    }
  }
  std::size_t expected_warm = 0;
  for (const auto& [library, workers] : expected_affinity.table())
    for (const auto& [worker, count] : workers) {
      expected_warm += count;
      if (!affinity_.Contains(library, worker))
        violate("missing affinity entry: " + library + " -> worker " +
                std::to_string(worker));
    }
  report.affinity_warm_gauge =
      static_cast<std::uint64_t>(m_.affinity_warm_instances->Value());
  if (m_.affinity_warm_instances->Value() !=
      static_cast<double>(expected_warm))
    violate("affinity_warm_instances gauge = " +
            std::to_string(report.affinity_warm_gauge) + " but " +
            std::to_string(expected_warm) + " ready instances");

  // Per-worker accounting: the membership sets must be mirrored by the
  // scheduler tables, and the recorded claims must exactly explain the
  // allocator's non-free resources.
  for (const auto& [worker_id, state] : workers_) {
    const std::string label = "worker " + std::to_string(worker_id);
    for (TaskId task_id : state.running_tasks)
      if (!running_tasks_.contains(task_id))
        violate(label + " lists unknown running task " +
                std::to_string(task_id));
    for (LibraryInstanceId inst_id : state.instances)
      if (!instances_.contains(inst_id))
        violate(label + " lists unknown instance " +
                std::to_string(inst_id));
    Resources claimed{0, 0, 0};
    auto add_claim = [&claimed](const Resources& r) {
      claimed.cores += r.cores;
      claimed.memory_mb += r.memory_mb;
      claimed.disk_mb += r.disk_mb;
    };
    for (const auto& [_, running] : running_tasks_)
      if (running.worker == worker_id) add_claim(running.claimed);
    for (const auto& [_, instance] : instances_)
      if (instance.worker == worker_id) add_claim(instance.claimed);
    const Resources total = state.alloc.total();
    const Resources expected_free{total.cores - claimed.cores,
                                  total.memory_mb - claimed.memory_mb,
                                  total.disk_mb - claimed.disk_mb};
    if (claimed.cores > total.cores || claimed.memory_mb > total.memory_mb ||
        claimed.disk_mb > total.disk_mb) {
      violate(label + " oversubscribed: claims " + claimed.ToString() +
              " of " + total.ToString());
    } else if (!(state.alloc.free() == expected_free)) {
      violate(label + " allocator free=" + state.alloc.free().ToString() +
              " but recorded claims imply " + expected_free.ToString());
    }
  }

  // Pass-by-reference audit: every tracked ref must still have a live
  // replica, and its consumer refcount must equal the consumers actually
  // queued or running — a drifted count either drops a payload a consumer is
  // about to fetch or pins it forever.  No FetchRef may be outstanding.
  report.refs_tracked = refs_.size();
  std::map<hash::ContentId, std::uint64_t> expected_consumers;
  for (const auto& [name, info] : libraries_)
    for (const auto& call : info.queue)
      for (const RefArg& arg : call.ref_args)
        ++expected_consumers[arg.ref.id];
  for (const auto& [id, instance] : instances_)
    for (const auto& [_, call] : instance.running)
      for (const RefArg& arg : call.ref_args)
        ++expected_consumers[arg.ref.id];
  for (const auto& [id, info] : refs_) {
    report.ref_bytes += info.size;
    const std::string label = "ref " + id.ShortHex();
    if (replicas_.ReplicaCount(id) == 0)
      violate(label + " tracked but no live replica holds it");
    std::uint64_t expected = 0;
    auto expected_it = expected_consumers.find(id);
    if (expected_it != expected_consumers.end()) expected = expected_it->second;
    if (info.pending_consumers != expected)
      violate(label + " counts " + std::to_string(info.pending_consumers) +
              " pending consumers but " + std::to_string(expected) +
              " are queued/running");
  }
  if (!manager_fetches_.empty())
    violate(std::to_string(manager_fetches_.size()) +
            " manager ref fetches still in flight");

  cmd.promise->set_value(std::move(report));
}

}  // namespace vinelet::core
