// Manager-side replica tracking and transfer-source selection.
//
// The manager maintains "a table of files" (paper §2.2.2) mapping each
// content id to the set of workers that hold a verified replica.  When a
// worker needs a file, the table picks a source: a peer that holds the blob
// and has spare outbound capacity (each worker "is capped to N transfers of
// input files at any given time to avoid a sink in the spanning tree",
// §3.3), falling back to the manager.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "hash/content_id.hpp"

namespace vinelet::storage {

using WorkerId = std::uint64_t;

/// The per-worker concurrent outbound transfer cap N of §3.3.
inline constexpr unsigned kWorkerTransferCap = 3;

/// Where a transfer should be served from.
struct SourceChoice {
  bool from_manager = true;
  WorkerId peer = 0;  // valid when !from_manager
};

class ReplicaTable {
 public:
  /// `worker_outbound_cap` is the per-worker concurrent-transfer cap N; the
  /// manager's own sends are unbounded.
  explicit ReplicaTable(unsigned worker_outbound_cap = kWorkerTransferCap)
      : worker_cap_(worker_outbound_cap) {}

  /// Records that `worker` holds a verified replica of `id`.
  void AddReplica(const hash::ContentId& id, WorkerId worker);
  void RemoveReplica(const hash::ContentId& id, WorkerId worker);

  /// Forgets every replica on a departed worker.
  void RemoveWorker(WorkerId worker);

  bool HasReplica(const hash::ContentId& id, WorkerId worker) const;
  std::vector<WorkerId> Holders(const hash::ContentId& id) const;
  std::size_t ReplicaCount(const hash::ContentId& id) const;

  /// Chooses a source for `requester` to fetch `id` from.
  ///
  /// Preference order: the peer holding the blob with the fewest in-flight
  /// outbound transfers (if peer transfer is allowed and some peer is under
  /// cap), then the manager, which always holds the original.
  SourceChoice PickSource(const hash::ContentId& id, WorkerId requester,
                          bool allow_peer_transfer) const;

  /// In-flight transfer accounting (manager is the bookkeeper for both its
  /// own link and workers' outbound links).
  void BeginTransfer(const SourceChoice& source);
  void EndTransfer(const SourceChoice& source);

  unsigned OutboundInFlight(WorkerId worker) const;
  unsigned ManagerOutboundInFlight() const noexcept { return manager_inflight_; }

 private:
  unsigned worker_cap_;
  unsigned manager_inflight_ = 0;
  std::unordered_map<hash::ContentId, std::set<WorkerId>> replicas_;
  std::unordered_map<WorkerId, unsigned> outbound_;
};

}  // namespace vinelet::storage
