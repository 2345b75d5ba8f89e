// Context distribution: per-worker file staging and the chunked,
// pipelined broadcast tree (fanout routing, resends, worker-death
// repair, completion probes).
#include "core/manager.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"
#include "hash/crc32c.hpp"

namespace vinelet::core {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// File staging.
// ---------------------------------------------------------------------------

bool Manager::StageFile(const storage::FileDecl& decl, WorkerId worker,
                        Waiter waiter, telemetry::TraceContext trace) {
  const TransferKey key{worker, decl.id};
  auto it = transfers_.find(key);
  if (it != transfers_.end()) {
    it->second.waiters.push_back(waiter);
    return true;
  }

  Transfer transfer;
  transfer.decl = decl;
  transfer.source = replicas_.PickSource(
      decl.id, worker, config_.peer_transfers && decl.peer_transfer);
  transfer.waiters.push_back(waiter);
  transfer.trace = trace;  // first waiter owns the transfer's causality
  replicas_.BeginTransfer(transfer.source);

  transfer.started_s = Now();
  if (transfer.source.from_manager) {
    auto payload = manager_store_.Get(decl.id);
    if (!payload.ok()) {
      // Should not happen: declared files live in the manager store.  When
      // it does (a fabricated or dropped declaration), decline instead of
      // emplacing a zombie transfer: a transfer that never sends anything
      // never completes, and its waiters would hang WaitAll forever.  The
      // caller proceeds without the file and the worker fails the work
      // cleanly ("input not staged"), feeding the normal retry path.
      VLOG_ERROR("manager") << "missing declared payload " << decl.name;
      replicas_.EndTransfer(transfer.source);
      return false;
    }
    m_.manager_transfers->Add();
    m_.manager_transfer_bytes->Add(decl.size);
    (void)SendTo(worker, PutFileMsg{decl, std::move(*payload),
                                    transfer.trace});
  } else {
    m_.peer_transfers->Add();
    m_.peer_transfer_bytes->Add(decl.size);
    (void)SendTo(transfer.source.peer,
                 PushFileMsg{decl, worker, transfer.trace});
  }
  transfers_.emplace(key, std::move(transfer));
  return true;
}

void Manager::CompleteTransfer(WorkerId worker, const hash::ContentId& id,
                               bool success, const std::string& error) {
  const TransferKey key{worker, id};
  auto it = transfers_.find(key);
  if (it == transfers_.end()) return;  // e.g. worker died mid-transfer
  Transfer transfer = std::move(it->second);
  transfers_.erase(it);
  replicas_.EndTransfer(transfer.source);

  if (!success) {
    VLOG_WARN("manager") << "transfer of " << transfer.decl.name << " to "
                         << worker << " failed: " << error;
    telemetry_->flight.Record("xfer-fail", error, transfer.trace.trace_id,
                              id.Prefix64(), worker);
    if (++transfer.attempts < config_.max_attempts) {
      // Retry from a fresh source (the failed peer may hold a corrupt or
      // evicted copy; the manager always has the original).
      transfer.source =
          replicas_.PickSource(id, worker, /*allow_peer_transfer=*/false);
      replicas_.BeginTransfer(transfer.source);
      auto payload = manager_store_.Get(id);
      if (payload.ok()) {
        (void)SendTo(worker, PutFileMsg{transfer.decl, std::move(*payload),
                                        transfer.trace});
        transfers_.emplace(key, std::move(transfer));
        return;
      }
      replicas_.EndTransfer(transfer.source);
    }
    // Permanent failure: fail task waiters; discard staging instances.
    const Status fail_status =
        DataLossError("input transfer failed: " + transfer.decl.name);
    for (const Waiter& waiter : transfer.waiters)
      FailWaiter(waiter, fail_status);
    return;
  }

  replicas_.AddReplica(id, worker);
  telemetry_->tracer.EmitLinked(transfer.trace, telemetry::Phase::kTransfer,
                                "file", "worker-" + std::to_string(worker),
                                id.Prefix64(), transfer.started_s, Now());
  for (const Waiter& waiter : transfer.waiters) {
    if (waiter.is_instance) {
      auto info_it = instance_info_.find(waiter.id);
      if (info_it == instance_info_.end()) continue;
      if (info_it->second.pending_files > 0 &&
          --info_it->second.pending_files == 0)
        DispatchInstall(waiter.id);
    } else {
      auto task_it = tasks_.find(waiter.id);
      if (task_it == tasks_.end()) continue;
      if (task_it->second.pending_files > 0 &&
          --task_it->second.pending_files == 0)
        DispatchTask(task_it->second);
    }
  }
}

// ---------------------------------------------------------------------------
// Chunked pipelined broadcast.
// ---------------------------------------------------------------------------

void Manager::StartBroadcast(BroadcastCmd cmd) {
  auto fail = [&](Status status) {
    cmd.future->Resolve(std::move(status));
    FinishOne();
  };
  if (broadcasts_.count(cmd.decl.id) != 0) {
    fail(FailedPreconditionError("broadcast already active: " + cmd.decl.name));
    return;
  }
  auto payload = manager_store_.Get(cmd.decl.id);
  if (!payload.ok()) {
    fail(payload.status());
    return;
  }

  BroadcastState state;
  state.decl = cmd.decl;
  state.chunk_bytes =
      cmd.chunk_bytes != 0 ? cmd.chunk_bytes : storage::kDefaultChunkBytes;
  state.future = std::move(cmd.future);
  state.started_s = cmd.submitted_s;
  state.last_probe_s = Now();
  for (const auto& [id, _] : core_.workers()) state.order.push_back(id);
  if (state.order.empty()) {
    state.future->Resolve(Outcome{});  // no workers: trivially complete
    FinishOne();
    return;
  }

  storage::BroadcastParams params;
  params.num_workers = state.order.size();
  params.fanout_cap =
      cmd.fanout_cap != 0 ? cmd.fanout_cap : storage::kWorkerTransferCap;
  params.mode = storage::BroadcastMode::kSpanningTree;
  auto plan = storage::PlanPipelinedBroadcast(
      params, storage::ChunkParams{state.decl.size, state.chunk_bytes});
  if (!plan.ok()) {
    fail(plan.status());
    return;
  }
  state.plan = std::move(*plan);
  state.num_chunks = state.plan.num_chunks;
  state.pending.insert(state.order.begin(), state.order.end());
  // Root span of the broadcast trace: every chunk (probes and recovery
  // resends included) carries this context so relay spans link back here.
  state.trace = telemetry_->tracer.StartTrace(
      telemetry::Phase::kSubmit, "broadcast", "manager",
      state.decl.id.Prefix64(), cmd.submitted_s, Now());

  // Materialize each root's relay subtree once; every chunk reuses it.
  auto build = [&](auto&& self, std::uint64_t index) -> ChunkRoute {
    ChunkRoute route;
    route.dest = state.order[static_cast<std::size_t>(index)];
    for (std::uint64_t child :
         state.plan.children[static_cast<std::size_t>(index)])
      route.children.push_back(self(self, child));
    return route;
  };
  std::vector<std::vector<ChunkRoute>> root_children;
  root_children.reserve(state.plan.roots.size());
  for (std::uint64_t root : state.plan.roots) {
    std::vector<ChunkRoute> subtree;
    for (std::uint64_t child :
         state.plan.children[static_cast<std::size_t>(root)])
      subtree.push_back(build(build, child));
    root_children.push_back(std::move(subtree));
  }

  // Stream chunk-major: every root has chunk k in flight before any k+1, so
  // relays begin forwarding after one chunk-time, not one blob-time.  Each
  // slice is a zero-copy view of the stored payload, so queueing the whole
  // schedule costs pointers, not copies of the blob.
  for (std::uint64_t k = 0; k < state.num_chunks; ++k) {
    Blob slice = payload->Slice(
        static_cast<std::size_t>(k * state.chunk_bytes),
        static_cast<std::size_t>(state.chunk_bytes));
    // One checksum pass per chunk, shared by every root's frame.
    const std::uint32_t chunk_crc = hash::Crc32c::Of(slice.span());
    for (std::size_t r = 0; r < state.plan.roots.size(); ++r) {
      PutChunkMsg msg;
      msg.decl = state.decl;
      msg.chunk_index = k;
      msg.num_chunks = state.num_chunks;
      msg.chunk_bytes = state.chunk_bytes;
      msg.children = root_children[r];
      msg.chunk = slice;
      msg.trace = state.trace;
      (void)SendTo(state.order[static_cast<std::size_t>(state.plan.roots[r])],
                   msg, chunk_crc);
    }
  }
  for (std::size_t r = 0; r < state.plan.roots.size(); ++r) {
    m_.manager_transfers->Add();
    m_.manager_transfer_bytes->Add(state.decl.size);
  }
  broadcasts_.emplace(state.decl.id, std::move(state));
}

void Manager::ResendBroadcastDirect(BroadcastState& state, WorkerId worker) {
  auto payload = manager_store_.Get(state.decl.id);
  if (!payload.ok()) return;
  // Recovery traffic is accounted separately: the broadcast's payload bytes
  // were counted once at admission (StartBroadcast), and counting resends
  // into manager_transfer_bytes would double-bill every retried subtree.
  m_.broadcast_resends->Add();
  m_.broadcast_resend_bytes->Add(state.decl.size);
  telemetry_->flight.Record("bcast-resend", state.decl.name,
                            state.trace.trace_id, state.decl.id.Prefix64(),
                            worker);
  for (std::uint64_t k = 0; k < state.num_chunks; ++k) {
    PutChunkMsg msg;
    msg.decl = state.decl;
    msg.chunk_index = k;
    msg.num_chunks = state.num_chunks;
    msg.chunk_bytes = state.chunk_bytes;
    msg.chunk = payload->Slice(static_cast<std::size_t>(k * state.chunk_bytes),
                               static_cast<std::size_t>(state.chunk_bytes));
    msg.trace = state.trace;
    if (!SendTo(worker, msg).ok()) return;  // died again; reaped next batch
  }
}

void Manager::CompleteBroadcastReady(WorkerId worker,
                                     const hash::ContentId& id) {
  auto it = broadcasts_.find(id);
  if (it == broadcasts_.end()) return;
  if (it->second.pending.erase(worker) == 0) return;  // duplicate confirm
  replicas_.AddReplica(id, worker);
  if (it->second.pending.empty()) FinishBroadcast(it);
}

void Manager::FailBroadcastWorker(WorkerId worker, const hash::ContentId& id,
                                  const std::string& error) {
  auto it = broadcasts_.find(id);
  if (it == broadcasts_.end()) return;
  BroadcastState& state = it->second;
  if (state.pending.count(worker) == 0) return;
  if (++state.attempts[worker] < config_.max_attempts) {
    VLOG_WARN("manager") << "broadcast chunk reassembly failed on worker "
                         << worker << " (" << error << "); re-sending direct";
    ResendBroadcastDirect(state, worker);
    return;
  }
  state.future->Resolve(DataLossError("broadcast of " + state.decl.name +
                                      " to worker " + std::to_string(worker) +
                                      " failed: " + error));
  FinishOne();
  broadcasts_.erase(it);
}

void Manager::HandleBroadcastWorkerDeath(WorkerId worker) {
  for (auto it = broadcasts_.begin(); it != broadcasts_.end();) {
    BroadcastState& state = it->second;
    state.pending.erase(worker);
    auto pos = std::find(state.order.begin(), state.order.end(), worker);
    if (pos != state.order.end()) {
      // Every chunk the dead worker had not yet relayed is lost to its
      // subtree: re-feed each still-pending descendant directly from the
      // manager.  Chunks that did get through are deduped by reassembly.
      const auto dead_index =
          static_cast<std::size_t>(pos - state.order.begin());
      std::vector<std::uint64_t> stack(state.plan.children[dead_index].begin(),
                                       state.plan.children[dead_index].end());
      while (!stack.empty()) {
        const auto index = static_cast<std::size_t>(stack.back());
        stack.pop_back();
        stack.insert(stack.end(), state.plan.children[index].begin(),
                     state.plan.children[index].end());
        const WorkerId dest = state.order[index];
        if (state.pending.count(dest) != 0) ResendBroadcastDirect(state, dest);
      }
    }
    auto next = std::next(it);
    if (state.pending.empty()) FinishBroadcast(it);
    it = next;
  }
}

void Manager::ProbeBroadcasts() {
  // Liveness backstop: a relay that crashes after the transport accepted its
  // chunks never confirms and never fails a send, so nothing else would
  // notice.  Periodically re-send chunk 0 (deduped by reassembly, and
  // re-acked by workers that already hold the file) to every unconfirmed
  // worker; a dead endpoint makes the send fail, which feeds the normal
  // death-recovery path.
  const double now = Now();
  for (auto& [id, state] : broadcasts_) {
    if (now - state.last_probe_s < config_.broadcast_probe_s) continue;
    state.last_probe_s = now;
    auto payload = manager_store_.Get(state.decl.id);
    if (!payload.ok()) continue;
    for (WorkerId worker : state.pending) {
      PutChunkMsg msg;
      msg.decl = state.decl;
      msg.chunk_index = 0;
      msg.num_chunks = state.num_chunks;
      msg.chunk_bytes = state.chunk_bytes;
      msg.chunk =
          payload->Slice(0, static_cast<std::size_t>(state.chunk_bytes));
      msg.trace = state.trace;
      (void)SendTo(worker, msg);
    }
  }
}

void Manager::FinishBroadcast(
    std::map<hash::ContentId, BroadcastState>::iterator it) {
  BroadcastState state = std::move(it->second);
  broadcasts_.erase(it);
  const double now = Now();
  telemetry_->tracer.EmitLinked(state.trace, telemetry::Phase::kTransfer,
                                "broadcast", "manager",
                                state.decl.id.Prefix64(), state.started_s,
                                now);
  Outcome outcome;
  outcome.timing.transfer_s = now - state.started_s;
  state.future->Resolve(std::move(outcome));
  FinishOne();
}

}  // namespace vinelet::core
