#include "storage/replica_table.hpp"

namespace vinelet::storage {

void ReplicaTable::AddReplica(const hash::ContentId& id, WorkerId worker) {
  replicas_[id].insert(worker);
}

void ReplicaTable::RemoveReplica(const hash::ContentId& id, WorkerId worker) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) return;
  it->second.erase(worker);
  if (it->second.empty()) replicas_.erase(it);
}

void ReplicaTable::RemoveWorker(WorkerId worker) {
  for (auto it = replicas_.begin(); it != replicas_.end();) {
    it->second.erase(worker);
    if (it->second.empty()) {
      it = replicas_.erase(it);
    } else {
      ++it;
    }
  }
  outbound_.erase(worker);
}

bool ReplicaTable::HasReplica(const hash::ContentId& id,
                              WorkerId worker) const {
  auto it = replicas_.find(id);
  return it != replicas_.end() && it->second.contains(worker);
}

std::vector<WorkerId> ReplicaTable::Holders(const hash::ContentId& id) const {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) return {};
  return std::vector<WorkerId>(it->second.begin(), it->second.end());
}

std::size_t ReplicaTable::ReplicaCount(const hash::ContentId& id) const {
  auto it = replicas_.find(id);
  return it == replicas_.end() ? 0 : it->second.size();
}

SourceChoice ReplicaTable::PickSource(const hash::ContentId& id,
                                      WorkerId requester,
                                      bool allow_peer_transfer) const {
  if (allow_peer_transfer) {
    auto it = replicas_.find(id);
    if (it != replicas_.end()) {
      std::optional<WorkerId> best;
      unsigned best_load = worker_cap_;
      for (WorkerId holder : it->second) {
        if (holder == requester) continue;
        auto load_it = outbound_.find(holder);
        const unsigned load = load_it == outbound_.end() ? 0 : load_it->second;
        if (load < best_load) {
          best_load = load;
          best = holder;
        }
      }
      if (best.has_value()) return SourceChoice{false, *best};
    }
  }
  return SourceChoice{true, 0};
}

void ReplicaTable::BeginTransfer(const SourceChoice& source) {
  if (source.from_manager) {
    ++manager_inflight_;
  } else {
    ++outbound_[source.peer];
  }
}

void ReplicaTable::EndTransfer(const SourceChoice& source) {
  if (source.from_manager) {
    if (manager_inflight_ > 0) --manager_inflight_;
  } else {
    auto it = outbound_.find(source.peer);
    if (it != outbound_.end() && it->second > 0) --it->second;
  }
}

unsigned ReplicaTable::OutboundInFlight(WorkerId worker) const {
  auto it = outbound_.find(worker);
  return it == outbound_.end() ? 0 : it->second;
}

}  // namespace vinelet::storage
