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
  status.task_queue_depth = core_.queued_tasks();
  for (const auto& [name, library] : core_.libraries())
    status.library_queues.push_back({name, library.queue.size()});
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
  for (const auto& [library, workers] : core_.affinity().table()) {
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
  for (const auto& [id, _] : core_.workers()) {
    WorkerStatus w;
    w.id = id;
    auto latency_it = latency_s_.find(id);
    if (latency_it != latency_s_.end()) {
      w.p95_latency_s = RollingP95(latency_it->second);
      w.latency_samples = latency_it->second.size();
    }
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

  report.running_tasks = static_cast<std::size_t>(std::count_if(
      tasks_.begin(), tasks_.end(),
      [](const auto& entry) { return entry.second.worker != 0; }));
  if (report.running_tasks != 0)
    violate(std::to_string(report.running_tasks) + " tasks still placed");
  report.transfers = transfers_.size();
  if (report.transfers != 0)
    violate(std::to_string(report.transfers) +
            " transfers still in flight (or leaked)");
  report.broadcasts = broadcasts_.size();
  if (report.broadcasts != 0)
    violate(std::to_string(report.broadcasts) + " broadcasts still active");

  // The control core audits its own half: queues, instances (settled, no
  // calls in flight, linked to their workers), affinity sets, the warm count
  // and per-worker claims.
  const ControlCore::AuditReport audit = core_.Audit();
  report.task_queue = audit.queued_tasks;
  report.queued_calls = audit.queued_calls;
  report.instances = audit.instances;
  report.running_invocations = audit.running_invocations;
  report.affinity_entries = audit.affinity_entries;
  for (const std::string& violation : audit.violations) violate(violation);

  // The manager's half of each instance.
  double expected_context_bytes = 0.0;
  for (const auto& [id, info] : instance_info_) {
    const ControlCore::Instance* instance = core_.FindInstance(id);
    if (instance == nullptr) {
      violate("instance #" + std::to_string(id) +
              " has staging state but no control state");
      continue;
    }
    if (instance->state == InstanceState::kReady && info.pending_files != 0)
      violate("instance " + instance->library + "#" + std::to_string(id) +
              " ready but pending_files=" + std::to_string(info.pending_files));
    if (instance->state == InstanceState::kReady ||
        instance->state == InstanceState::kDraining)
      expected_context_bytes += static_cast<double>(info.context_memory);
  }

  // Gauges must equal the values recomputed from first principles.
  report.libraries_active_gauge =
      static_cast<std::uint64_t>(m_.libraries_active->Value());
  if (m_.libraries_active->Value() != static_cast<double>(audit.active))
    violate("libraries_active gauge = " +
            std::to_string(report.libraries_active_gauge) + " but " +
            std::to_string(audit.active) + " ready/draining instances");
  report.retained_context_bytes_gauge =
      static_cast<std::uint64_t>(m_.retained_context_bytes->Value());
  if (m_.retained_context_bytes->Value() != expected_context_bytes)
    violate("retained_context_bytes gauge = " +
            std::to_string(report.retained_context_bytes_gauge) +
            " but instances retain " +
            std::to_string(static_cast<std::uint64_t>(
                expected_context_bytes)) +
            " bytes");
  // This check may run between scheduling passes, so publish the core's
  // count first; the audit above recounted it from the instance table.
  m_.affinity_warm_instances->Set(static_cast<double>(core_.warm_instances()));
  report.affinity_warm_gauge =
      static_cast<std::uint64_t>(m_.affinity_warm_instances->Value());
  if (m_.affinity_warm_instances->Value() != static_cast<double>(audit.warm))
    violate("affinity_warm_instances gauge = " +
            std::to_string(report.affinity_warm_gauge) + " but " +
            std::to_string(audit.warm) + " ready instances");

  // Task claims in the core must be mirrored by the manager's task table.
  for (const auto& [worker_id, worker] : core_.workers())
    for (const auto& [task_id, _] : worker.tasks)
      if (auto it = tasks_.find(task_id);
          it == tasks_.end() || it->second.worker != worker_id)
        violate("worker " + std::to_string(worker_id) +
                " lists unknown running task " + std::to_string(task_id));

  // Pass-by-reference audit: every tracked ref must still have a live
  // replica, and its consumer refcount must equal the consumers actually
  // queued or running — a drifted count either drops a payload a consumer is
  // about to fetch or pins it forever.  No FetchRef may be outstanding.
  report.refs_tracked = refs_.size();
  std::map<hash::ContentId, std::uint64_t> expected_consumers;
  for (const auto& [_, call] : calls_)  // queued and running
    for (const RefArg& arg : call.ref_args) ++expected_consumers[arg.ref.id];
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
