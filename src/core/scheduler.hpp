// Context-affinity scheduling policy: the pure decision components that
// core::ControlCore (control_core.hpp) applies for both the live Manager and
// the discrete-event simulator.
//
// The paper's retention argument (§3.4) only pays off if invocations are
// routed to workers that already hold the library's context.  These pieces
// are pure and deterministic — no clock, no randomness:
//
//  * AffinityIndex — per-library affinity sets: which workers currently
//    retain a ready instance of each library.  ControlCore keeps it in
//    step with its instance table; its Audit() checks it.
//  * DecideAutoscale — the closed loop: deploy another instance when queued
//    demand exceeds warm capacity by the steal threshold, flag idle
//    libraries with a poor Fig-11 share value as preferred eviction
//    victims, hold otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "core/types.hpp"

namespace vinelet::core {

struct SchedulerConfig {
  /// Queued invocations per instance — warm or already deploying — a
  /// library tolerates before the scheduler recruits cold capacity, i.e.
  /// before a deploy may displace another library's idle warm instance.  A
  /// backlog of Q therefore settles at ~Q/steal_threshold instances rather
  /// than one per queued invocation; below the threshold the backlog drains
  /// through the affinity set.
  std::size_t steal_threshold = 4;
};

/// Absolute queue depth at which the autoscaler keeps at least one deploy
/// in flight no matter how large the tolerated per-instance backlog is:
/// sustained starvation always gets capacity on the way.
inline constexpr std::size_t kAutoscaleQueueHigh = 16;

/// Fig-11 share-value floor (invocations served per warm instance).  An
/// idle library below the floor never amortized its deploys and is a
/// preferred eviction victim when another library starves for capacity;
/// one at or above the floor is retained longest, because evicting it
/// destroys exactly the amortization Fig 11 measures.
inline constexpr double kShareFloor = 4.0;

/// Maximum invocations folded into one RunInvocationBatchMsg.
inline constexpr std::uint32_t kMaxBatch = 16;

/// Per-library affinity sets: library -> { worker -> ready instance count }.
/// Counts (not booleans) because a worker may host several instances of the
/// same library; the entry disappears only when the last one drains.
class AffinityIndex {
 public:
  using WorkerCounts = std::map<WorkerId, std::uint32_t>;

  /// A ready instance of `library` appeared on `worker`.
  void Add(const std::string& library, WorkerId worker);

  /// A ready instance of `library` left `worker` (evicted or its worker
  /// died).  Removing an absent entry is ignored (idempotent) so callers
  /// may tear down without tracking readiness themselves.
  void Remove(const std::string& library, WorkerId worker);

  /// Worker death: drop `worker` from every library's set.
  void RemoveWorker(WorkerId worker);

  /// Workers currently retaining `library`, or nullptr when none.
  const WorkerCounts* Get(const std::string& library) const;

  bool Contains(const std::string& library, WorkerId worker) const;

  /// Total ready instances of `library` across the cluster.
  std::size_t CountFor(const std::string& library) const;

  /// Full table, for quiescence audits and status export.
  const std::map<std::string, WorkerCounts>& table() const { return table_; }

  void Clear() { table_.clear(); }

 private:
  std::map<std::string, WorkerCounts> table_;
};

/// Inputs to one autoscaling decision for one library, as ControlCore
/// observes them.
struct AutoscaleSignal {
  std::size_t queue_depth = 0;        // invocations waiting for this library
  std::size_t ready_instances = 0;    // warm instances (affinity set size)
  std::size_t pending_instances = 0;  // staging / installing (capacity in
                                      // flight — don't double-deploy)
  std::size_t free_slots = 0;         // open slots across warm instances
  std::size_t pending_slots = 0;      // slots the pending instances will add
  /// Workers that could host one more instance of this library without
  /// evicting anything.  Expansion into such capacity displaces nobody, so
  /// it is gated only on the backlog outrunning capacity in flight; the
  /// steal threshold throttles displacing deploys alone.
  std::size_t workers_with_room = 0;
  double share_value = 0.0;  // Fig 11: invocations served per warm instance
};

enum class AutoscaleAction : std::uint8_t { kHold = 0, kDeploy, kEvict };

/// Pure decision function — no side effects, no clock, no randomness.
AutoscaleAction DecideAutoscale(const SchedulerConfig& config,
                                const AutoscaleSignal& signal);

}  // namespace vinelet::core
