#include "core/introspect.hpp"

#include <cstdio>

#include "telemetry/export.hpp"

namespace vinelet::core {

namespace {

std::string Seconds(double value) {
  char out[48];
  std::snprintf(out, sizeof(out), "%.3f", value);
  return out;
}

}  // namespace

bool AnyStraggler(const ClusterStatus& status) {
  for (const auto& worker : status.workers)
    if (worker.straggler) return true;
  return false;
}

bool AnySloBreach(const ClusterStatus& status) {
  for (const auto& slo : status.slo)
    if (slo.Breached()) return true;
  return false;
}

std::string FormatClusterStatus(const ClusterStatus& status) {
  std::string out;
  out += "cluster status @ t=" + Seconds(status.collected_s) + "s\n";
  out += "  task queue: " + std::to_string(status.task_queue_depth) + "\n";
  for (const auto& queue : status.library_queues) {
    out += "  library queue " + queue.library + ": " +
           std::to_string(queue.queued) + "\n";
  }
  for (const auto& broadcast : status.broadcasts) {
    out += "  broadcast " + broadcast.name + " (" + broadcast.id.ShortHex() +
           ", " + std::to_string(broadcast.num_chunks) + " chunks): " +
           std::to_string(broadcast.pending.size()) + " subtree(s) pending";
    if (!broadcast.pending.empty()) {
      out += " [";
      for (std::size_t i = 0; i < broadcast.pending.size(); ++i) {
        if (i != 0) out += " ";
        out += std::to_string(broadcast.pending[i]);
      }
      out += "]";
    }
    out += "\n";
  }
  const SchedulerStatus& sched = status.scheduler;
  out += "  scheduler: hit rate " + Seconds(sched.HitRate()) + " (" +
         std::to_string(sched.affinity_hits) + " hits / " +
         std::to_string(sched.affinity_misses) + " misses), " +
         std::to_string(sched.steals) + " steal(s), autoscaler +" +
         std::to_string(sched.autoscale_deploys) + "/-" +
         std::to_string(sched.autoscale_evicts) + "\n";
  out += "  dispatch batches: " + std::to_string(sched.batches_sent) +
         " message(s), avg " + Seconds(sched.avg_batch_size) +
         " invocation(s)/message, max " +
         std::to_string(sched.max_batch_size) + "\n";
  for (const auto& set : sched.affinity_sets) {
    out += "  affinity " + set.library + ": workers [";
    for (std::size_t i = 0; i < set.workers.size(); ++i) {
      if (i != 0) out += " ";
      out += std::to_string(set.workers[i]);
    }
    out += "]\n";
  }
  for (const auto& slo : status.slo) {
    out += "  slo " + slo.library + ": " + std::to_string(slo.samples) +
           " sample(s), viol " + Seconds(slo.violation_fraction) + " (" +
           std::to_string(slo.violations) + "), p50 " + Seconds(slo.p50_s) +
           "s, p99 " + Seconds(slo.p99_s) + "s, goodput " +
           Seconds(slo.goodput_per_s) + "/s, burn " + Seconds(slo.burn_rate);
    if (slo.Breached()) {
      out += "  ** SLO BREACH";
      if (slo.latency_breached) out += " latency";
      if (slo.goodput_breached) out += " goodput";
      out += " **";
    }
    out += "\n";
  }
  out += "  median p95 latency: " + Seconds(status.cluster_median_p95_s) +
         "s (straggler factor " + Seconds(status.straggler_factor) + ")\n";
  for (const auto& worker : status.workers) {
    out += "  worker " + std::to_string(worker.id) + ": inbox " +
           std::to_string(worker.inbox_depth) + ", tasks " +
           std::to_string(worker.tasks_executed) + ", cache " +
           std::to_string(worker.cache.size()) + " blobs / " +
           std::to_string(worker.CacheBytes()) + " B, p95 " +
           Seconds(worker.p95_latency_s) + "s over " +
           std::to_string(worker.latency_samples) + " sample(s)";
    if (worker.straggler) out += "  ** STRAGGLER **";
    out += "\n";
    out += "    data plane: refs held " + std::to_string(worker.refs_held) +
           ", p2p fetched " + std::to_string(worker.p2p_fetch_bytes) +
           " B, p2p served " + std::to_string(worker.p2p_serve_bytes) +
           " B, relayed results " +
           std::to_string(worker.relayed_result_bytes) + " B, arena hwm " +
           std::to_string(worker.arena_hwm_bytes) + " B\n";
    for (const auto& entry : worker.cache) {
      out += "    cache " + entry.id.ShortHex() + " " +
             std::to_string(entry.bytes) + " B\n";
    }
    for (const auto& assembly : worker.assemblies) {
      out += "    assembling " + assembly.id.ShortHex() + " " +
             std::to_string(assembly.received) + "/" +
             std::to_string(assembly.total) + " chunks\n";
    }
    for (const auto& slot : worker.libraries) {
      out += "    library " + slot.library + "#" +
             std::to_string(slot.instance_id) + ": served " +
             std::to_string(slot.invocations_served) + ", queued " +
             std::to_string(slot.queued) + "\n";
    }
  }
  for (const auto& conn : status.connections) {
    out += "  conn ";
    out += conn.peer == 0 ? std::string("(inbound)")
                          : ("peer " + std::to_string(conn.peer));
    out += " " + conn.remote_addr + ": sent " +
           std::to_string(conn.frames_sent) + " frame(s) / " +
           std::to_string(conn.bytes_sent) + " B, recv " +
           std::to_string(conn.frames_received) + " frame(s) / " +
           std::to_string(conn.bytes_received) + " B, queue " +
           std::to_string(conn.send_queue_bytes) + " B (peak " +
           std::to_string(conn.peak_queue_bytes) + " B), stalls " +
           std::to_string(conn.backpressure_stalls) + "\n";
  }
  return out;
}

std::string ClusterStatusToJson(const ClusterStatus& status) {
  using telemetry::JsonEscape;
  std::string out = "{\n\"collected_s\": " + Seconds(status.collected_s) +
                    ",\n\"task_queue_depth\": " +
                    std::to_string(status.task_queue_depth) +
                    ",\n\"cluster_median_p95_s\": " +
                    Seconds(status.cluster_median_p95_s) +
                    ",\n\"straggler_factor\": " +
                    Seconds(status.straggler_factor) +
                    ",\n\"library_queues\": [";
  bool first = true;
  for (const auto& queue : status.library_queues) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"library\":\"" + JsonEscape(queue.library) +
           "\",\"queued\":" + std::to_string(queue.queued) + "}";
  }
  out += "\n],\n\"broadcasts\": [";
  first = true;
  for (const auto& broadcast : status.broadcasts) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":\"" + JsonEscape(broadcast.name) + "\",\"id\":\"" +
           broadcast.id.ShortHex() +
           "\",\"num_chunks\":" + std::to_string(broadcast.num_chunks) +
           ",\"pending\":[";
    for (std::size_t i = 0; i < broadcast.pending.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(broadcast.pending[i]);
    }
    out += "]}";
  }
  const SchedulerStatus& sched = status.scheduler;
  out += "\n],\n\"scheduler\": {\"hit_rate\":" + Seconds(sched.HitRate()) +
         ",\"affinity_hits\":" + std::to_string(sched.affinity_hits) +
         ",\"affinity_misses\":" + std::to_string(sched.affinity_misses) +
         ",\"steals\":" + std::to_string(sched.steals) +
         ",\"autoscale_deploys\":" + std::to_string(sched.autoscale_deploys) +
         ",\"autoscale_evicts\":" + std::to_string(sched.autoscale_evicts) +
         ",\"batches_sent\":" + std::to_string(sched.batches_sent) +
         ",\"avg_batch_size\":" + Seconds(sched.avg_batch_size) +
         ",\"max_batch_size\":" + std::to_string(sched.max_batch_size) +
         ",\"affinity_sets\":[";
  first = true;
  for (const auto& set : sched.affinity_sets) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"library\":\"" + JsonEscape(set.library) + "\",\"workers\":[";
    for (std::size_t i = 0; i < set.workers.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(set.workers[i]);
    }
    out += "]}";
  }
  out += "\n]},\n\"slo\": [";
  first = true;
  for (const auto& slo : status.slo) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"library\":\"" + JsonEscape(slo.library) +
           "\",\"latency_target_s\":" + Seconds(slo.latency_target_s) +
           ",\"target_fraction\":" + Seconds(slo.target_fraction) +
           ",\"min_goodput_per_s\":" + Seconds(slo.min_goodput_per_s) +
           ",\"window_s\":" + Seconds(slo.window_s) +
           ",\"samples\":" + std::to_string(slo.samples) +
           ",\"violations\":" + std::to_string(slo.violations) +
           ",\"violation_fraction\":" + Seconds(slo.violation_fraction) +
           ",\"p50_s\":" + Seconds(slo.p50_s) +
           ",\"p99_s\":" + Seconds(slo.p99_s) +
           ",\"goodput_per_s\":" + Seconds(slo.goodput_per_s) +
           ",\"burn_rate\":" + Seconds(slo.burn_rate) +
           ",\"latency_breached\":" + (slo.latency_breached ? "true" : "false") +
           ",\"goodput_breached\":" +
           (slo.goodput_breached ? "true" : "false") + "}";
  }
  out += "\n],\n\"workers\": [";
  first = true;
  for (const auto& worker : status.workers) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"id\":" + std::to_string(worker.id) +
           ",\"inbox_depth\":" + std::to_string(worker.inbox_depth) +
           ",\"tasks_executed\":" + std::to_string(worker.tasks_executed) +
           ",\"p95_latency_s\":" + Seconds(worker.p95_latency_s) +
           ",\"latency_samples\":" + std::to_string(worker.latency_samples) +
           ",\"straggler\":" + (worker.straggler ? "true" : "false") +
           ",\"refs_held\":" + std::to_string(worker.refs_held) +
           ",\"p2p_fetch_bytes\":" + std::to_string(worker.p2p_fetch_bytes) +
           ",\"p2p_serve_bytes\":" + std::to_string(worker.p2p_serve_bytes) +
           ",\"relayed_result_bytes\":" +
           std::to_string(worker.relayed_result_bytes) +
           ",\"arena_hwm_bytes\":" + std::to_string(worker.arena_hwm_bytes) +
           ",\"cache\":[";
    for (std::size_t i = 0; i < worker.cache.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"id\":\"" + worker.cache[i].id.ShortHex() +
             "\",\"bytes\":" + std::to_string(worker.cache[i].bytes) + "}";
    }
    out += "],\"assemblies\":[";
    for (std::size_t i = 0; i < worker.assemblies.size(); ++i) {
      if (i != 0) out += ",";
      const AssemblyStatus& assembly = worker.assemblies[i];
      out += "{\"id\":\"" + assembly.id.ShortHex() +
             "\",\"received\":" + std::to_string(assembly.received) +
             ",\"total\":" + std::to_string(assembly.total) + "}";
    }
    out += "],\"libraries\":[";
    for (std::size_t i = 0; i < worker.libraries.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"instance_id\":" +
             std::to_string(worker.libraries[i].instance_id) +
             ",\"library\":\"" + JsonEscape(worker.libraries[i].library) +
             "\",\"served\":" +
             std::to_string(worker.libraries[i].invocations_served) +
             ",\"queued\":" + std::to_string(worker.libraries[i].queued) + "}";
    }
    out += "]}";
  }
  out += "\n],\n\"connections\": [";
  first = true;
  for (const auto& conn : status.connections) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"peer\":" + std::to_string(conn.peer) + ",\"remote_addr\":\"" +
           JsonEscape(conn.remote_addr) +
           "\",\"frames_sent\":" + std::to_string(conn.frames_sent) +
           ",\"bytes_sent\":" + std::to_string(conn.bytes_sent) +
           ",\"frames_received\":" + std::to_string(conn.frames_received) +
           ",\"bytes_received\":" + std::to_string(conn.bytes_received) +
           ",\"send_queue_bytes\":" + std::to_string(conn.send_queue_bytes) +
           ",\"peak_queue_bytes\":" + std::to_string(conn.peak_queue_bytes) +
           ",\"backpressure_stalls\":" +
           std::to_string(conn.backpressure_stalls) + "}";
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace vinelet::core
