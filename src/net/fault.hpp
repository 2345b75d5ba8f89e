// Seeded, policy-driven fault injection for the in-process fabric.
//
// A FaultPlan describes *what* can go wrong (per-link drop/duplicate/
// corrupt/delay probabilities, per-worker setup/invocation/task failure
// rates, straggler slow-downs, and a schedule of worker kills); a
// FaultInjector turns the plan into concrete decisions.  Determinism is the
// whole point: every (from, to) link and every worker endpoint gets its own
// RNG stream derived from (plan.seed, link/endpoint key), so the k-th
// message on a link receives the same verdict no matter how unrelated
// links interleave across threads.  The same plan drives the DES backend
// (sim::SimConfig::fault), so a `(seed, schedule)` pair replays identically
// in simulation and in the real runtime.
//
// Dropped and blocked messages return Status::Ok() to the sender — a
// partition looks like silence, not a TCP reset — which is exactly what
// exercises the manager's probe/retry paths.  Corruption never mutates a
// shared refcounted Blob in place (that would corrupt the sender's store);
// it deep-copies the bytes and flips one bit in the copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace vinelet::telemetry {
class FlightRecorder;
}

namespace vinelet::net {

using EndpointId = std::uint64_t;

/// Per-link message fault probabilities.  All default to "no faults".
struct LinkFaults {
  double drop_p = 0.0;     ///< Message silently vanishes.
  double dup_p = 0.0;      ///< Message delivered twice (tests idempotence).
  double corrupt_p = 0.0;  ///< One bit flipped in a deep copy of the bytes.
  double delay_p = 0.0;    ///< Message held back, causing reordering.
  double delay_min_s = 0.0;
  double delay_max_s = 0.0;
};

/// Per-worker execution fault probabilities.
struct WorkerFaults {
  double setup_failure_p = 0.0;       ///< Library context setup fails.
  double invocation_failure_p = 0.0;  ///< A library invocation fails.
  double task_failure_p = 0.0;        ///< An ordinary task fails.
  double straggler_p = 0.0;           ///< Execution slowed by straggler_delay_s.
  double straggler_delay_s = 0.0;
};

/// A scheduled abrupt worker death.  The runtime harness (and the DES
/// mirror) interpret `at_s` as seconds since workload start.
struct KillEvent {
  double at_s = 0.0;
  EndpointId worker = 0;
};

/// The full schedule: seed + policies + kill list.  Value type; copy it
/// into SimConfig to replay the same chaos in the simulator.
struct FaultPlan {
  std::uint64_t seed = 1;
  LinkFaults link;
  WorkerFaults worker;
  std::vector<KillEvent> kills;

  bool Quiet() const noexcept {
    return link.drop_p == 0.0 && link.dup_p == 0.0 && link.corrupt_p == 0.0 &&
           link.delay_p == 0.0 && worker.setup_failure_p == 0.0 &&
           worker.invocation_failure_p == 0.0 && worker.task_failure_p == 0.0 &&
           worker.straggler_p == 0.0 && kills.empty();
  }
};

/// The verdict for one Send.  `copies == 0` with drop unset never happens;
/// a dropped message has drop == true and the rest is ignored.
struct SendDecision {
  bool drop = false;
  bool corrupt = false;
  int copies = 1;        ///< 2 when duplicated.
  double delay_s = 0.0;  ///< > 0: hold back (reorders behind later sends).
  std::uint64_t corrupt_bit = 0;  ///< Which bit to flip when corrupt is set.
};

/// Counters of injected faults (monotonic, readable from any thread).
struct FaultStats {
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t delayed = 0;
  std::uint64_t blocked = 0;
  std::uint64_t setup_failures = 0;
  std::uint64_t invocation_failures = 0;
  std::uint64_t task_failures = 0;
  std::uint64_t stragglers = 0;

  std::uint64_t TotalInjected() const noexcept {
    return dropped + duplicated + corrupted + delayed + blocked +
           setup_failures + invocation_failures + task_failures + stragglers;
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const noexcept { return plan_; }

  /// Injected faults land in the flight recorder (tags "inj-drop",
  /// "inj-dup", ...) so crash dumps show the schedule.  Pass nullptr to
  /// clear.  The recorder must outlive the injector.
  void SetFlightRecorder(telemetry::FlightRecorder* flight) noexcept {
    flight_.store(flight, std::memory_order_release);
  }

  /// The verdict for one message on the (from, to) link.  Thread-safe;
  /// decisions on a given link form a deterministic stream.
  SendDecision OnSend(EndpointId from, EndpointId to);

  /// Explicit directional partition control (deterministic, not random).
  void BlockLink(EndpointId from, EndpointId to, bool blocked);
  /// Symmetric partition between two endpoints.
  void Partition(EndpointId a, EndpointId b, bool partitioned);
  bool LinkBlocked(EndpointId from, EndpointId to) const;
  /// Explicit one-shot corruption (deterministic, not random): the next
  /// `frames` sends on from→to each get one bit flipped, in the attachment
  /// when the frame has one.  0 cancels what is left.
  void CorruptNext(EndpointId from, EndpointId to, std::uint64_t frames);

  /// Worker-side hooks: each draws from the worker's own stream.
  bool InjectSetupFailure(EndpointId worker);
  bool InjectInvocationFailure(EndpointId worker);
  bool InjectTaskFailure(EndpointId worker);
  /// 0 when this execution is not a straggler.
  double StragglerDelayS(EndpointId worker);

  FaultStats stats() const;

  /// Deep-copies `bytes` and flips one deterministically chosen bit.
  /// Exposed for the DES mirror and tests; empty blobs pass through.
  static Blob CorruptCopy(const Blob& bytes, std::uint64_t which_bit);

 private:
  struct Counters {
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> duplicated{0};
    std::atomic<std::uint64_t> corrupted{0};
    std::atomic<std::uint64_t> delayed{0};
    std::atomic<std::uint64_t> blocked{0};
    std::atomic<std::uint64_t> setup_failures{0};
    std::atomic<std::uint64_t> invocation_failures{0};
    std::atomic<std::uint64_t> task_failures{0};
    std::atomic<std::uint64_t> stragglers{0};
  };

  Rng& StreamFor(std::uint64_t key);  // Caller must hold mu_.
  void RecordFault(const char* tag, EndpointId from, EndpointId to);

  const FaultPlan plan_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Rng> streams_;
  std::unordered_set<std::uint64_t> blocked_links_;
  std::unordered_map<std::uint64_t, std::uint64_t> corrupt_next_;  // link → frames
  Counters counters_;
  std::atomic<telemetry::FlightRecorder*> flight_{nullptr};
};

}  // namespace vinelet::net
