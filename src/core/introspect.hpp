// Live cluster introspection: the structured answer to "what is the
// cluster doing right now?".
//
// Manager::QueryStatus assembles a ClusterStatus from its own scheduler
// state plus one StatusReplyMsg per connected worker (queue depths, cache
// contents, reassembly progress, library slot occupancy), and flags
// stragglers: workers whose rolling p95 invocation latency exceeds
// `straggler_factor` × the cluster median.  The `vinelet-status` CLI and
// tests render it with FormatClusterStatus / ClusterStatusToJson.
#pragma once

#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/types.hpp"
#include "telemetry/slo.hpp"

namespace vinelet::core {

/// A worker is flagged as a straggler when its rolling p95 invocation
/// latency exceeds this multiple of the cluster median.
inline constexpr double kStragglerFactor = 3.0;

/// One worker's live state, merged from its StatusReplyMsg and the
/// manager's own latency bookkeeping.
struct WorkerStatus {
  WorkerId id = 0;
  std::uint64_t inbox_depth = 0;
  std::uint64_t tasks_executed = 0;
  std::vector<CacheEntryStatus> cache;
  std::vector<AssemblyStatus> assemblies;
  std::vector<LibrarySlotStatus> libraries;
  /// Rolling p95 of invocation round-trip latency on this worker (0 with
  /// no samples), and the window size it was computed over.
  double p95_latency_s = 0.0;
  std::uint64_t latency_samples = 0;
  bool straggler = false;
  /// Pass-by-reference data-plane counters (see StatusReplyMsg): pinned ref
  /// payloads held, peer-to-peer bytes fetched/served, by-value result bytes
  /// relayed through the manager, and the encode buffer-pool high-water mark.
  std::uint64_t refs_held = 0;
  std::uint64_t p2p_fetch_bytes = 0;
  std::uint64_t p2p_serve_bytes = 0;
  std::uint64_t relayed_result_bytes = 0;
  std::uint64_t arena_hwm_bytes = 0;

  std::uint64_t CacheBytes() const {
    std::uint64_t total = 0;
    for (const auto& entry : cache) total += entry.bytes;
    return total;
  }
};

/// One in-flight broadcast: which destinations have not confirmed yet.
struct BroadcastStatus {
  std::string name;
  hash::ContentId id;
  std::uint64_t num_chunks = 0;
  std::vector<WorkerId> pending;  // unconfirmed destinations (subtrees)
};

/// One library template's backlog at the manager.
struct LibraryQueueStatus {
  std::string library;
  std::uint64_t queued = 0;
};

/// One library's affinity set: workers currently retaining its context.
struct AffinitySetStatus {
  std::string library;
  std::vector<WorkerId> workers;
};

/// Scheduler + autoscaler view: affinity hit rate, steal and autoscale
/// action counts, and the dispatch batch-size distribution.
struct SchedulerStatus {
  std::uint64_t affinity_hits = 0;
  std::uint64_t affinity_misses = 0;
  std::uint64_t steals = 0;
  std::uint64_t autoscale_deploys = 0;
  std::uint64_t autoscale_evicts = 0;
  std::uint64_t batches_sent = 0;       // dispatch messages (any size)
  double avg_batch_size = 0.0;          // invocations per dispatch message
  std::uint64_t max_batch_size = 0;     // largest batch observed
  std::vector<AffinitySetStatus> affinity_sets;

  double HitRate() const {
    const std::uint64_t total = affinity_hits + affinity_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(affinity_hits) /
                            static_cast<double>(total);
  }
};

struct ClusterStatus {
  double collected_s = 0.0;  // telemetry clock when the query ran
  std::uint64_t task_queue_depth = 0;
  std::vector<LibraryQueueStatus> library_queues;
  std::vector<BroadcastStatus> broadcasts;
  std::vector<WorkerStatus> workers;
  /// Median of the per-worker p95 latencies (0 with no samples), and the
  /// multiplier a worker's p95 must exceed it by to be flagged.
  double cluster_median_p95_s = 0.0;
  double straggler_factor = kStragglerFactor;
  SchedulerStatus scheduler;
  /// Per-library SLO evaluation (empty when no targets are configured).
  std::vector<telemetry::SloSnapshot> slo;
  /// Transport-level view of the manager's links: per-connection frame and
  /// byte counters, send-queue high-water marks, and backpressure stalls.
  /// Populated from Transport::ConnectionsSnapshot(), so it is empty for
  /// the in-process bus and lists real sockets under TcpTransport.
  std::vector<net::ConnectionStats> connections;
};

/// True when any worker carries the straggler flag.
bool AnyStraggler(const ClusterStatus& status);

/// True when any library's SLO is breached (latency burn rate > 1 or
/// goodput under its floor).
bool AnySloBreach(const ClusterStatus& status);

/// Human-readable multi-line rendering (the vinelet-status default).
std::string FormatClusterStatus(const ClusterStatus& status);

/// Machine-readable rendering (vinelet-status --json).
std::string ClusterStatusToJson(const ClusterStatus& status);

}  // namespace vinelet::core
