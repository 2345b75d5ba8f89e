// Pass-by-reference data plane: ref-argument discovery in submitted
// calls, refcount settlement when calls finish, DropBlob propagation,
// and the manager-side FetchBlob client used by Manager::FetchRef.
#include "core/manager.hpp"

#include <algorithm>
#include <chrono>

#include "common/log.hpp"

namespace vinelet::core {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Pass-by-reference data plane.
// ---------------------------------------------------------------------------

namespace {

/// Cheap pre-filter: serialized WrapRef dicts embed the literal "$blobref"
/// key, so argument blobs without that byte sequence cannot carry a ref and
/// skip the Value decode entirely (by-value workloads pay nothing).
bool MightContainRef(const Blob& args) {
  static constexpr std::string_view kKey = "$blobref";
  const auto bytes = args.span();
  return std::search(bytes.begin(), bytes.end(), kKey.begin(), kKey.end()) !=
         bytes.end();
}

}  // namespace

void Manager::RegisterRefArgs(PendingCall& call) {
  if (call.args.size() == 0 || !MightContainRef(call.args)) return;
  auto value = serde::Value::FromBlob(call.args);
  if (!value.ok() || value->type() != serde::Value::Type::kList) return;
  const auto& list = value->AsList();
  for (std::size_t i = 0; i < list.size(); ++i) {
    auto ref = TryUnwrapRef(list[i]);
    if (!ref) continue;
    RefArg arg;
    arg.arg_index = static_cast<std::uint32_t>(i);
    arg.ref = *ref;
    call.ref_args.push_back(arg);
    auto it = refs_.find(ref->id);
    if (it != refs_.end()) ++it->second.pending_consumers;
  }
}

void Manager::SettleCallRefs(const PendingCall& call) {
  for (const RefArg& arg : call.ref_args) {
    auto it = refs_.find(arg.ref.id);
    if (it == refs_.end()) continue;
    if (it->second.pending_consumers > 0) --it->second.pending_consumers;
    MaybeDropRef(arg.ref.id);
  }
}

void Manager::MaybeDropRef(const hash::ContentId& id) {
  auto it = refs_.find(id);
  if (it == refs_.end()) return;
  if (!it->second.released || it->second.pending_consumers != 0) return;
  for (WorkerId holder : replicas_.Holders(id)) {
    (void)SendTo(holder, DropBlobMsg{id});
    replicas_.RemoveReplica(id, holder);
  }
  (void)manager_store_.Remove(id);  // FetchRef may have cached a copy
  m_.refs_dropped->Add();
  refs_.erase(it);
}

WorkerId Manager::PickRefSource(const hash::ContentId& id,
                                WorkerId target) const {
  // Nearest replica by hash ring: walk the ring from the content id and take
  // the first live holder other than the target itself.
  const auto holder =
      core_.ring().FindFrom(id.Prefix64(), [&](WorkerId candidate) {
        return candidate != target && replicas_.HasReplica(id, candidate);
      });
  // 0: no live holder; the worker fails the fetch and the call retries.
  return holder.value_or(0);
}

void Manager::HandleFetchRefCmd(FetchRefCmd cmd) {
  if (auto cached = manager_store_.Get(cmd.ref.id); cached.ok()) {
    cmd.promise->set_value(std::move(*cached));
    return;
  }
  auto [it, inserted] = manager_fetches_.try_emplace(cmd.ref.id);
  it->second.ref = cmd.ref;
  it->second.waiters.push_back(std::move(cmd.promise));
  if (inserted && !AdvanceManagerFetch(it->second)) {
    for (auto& waiter : it->second.waiters)
      waiter->set_value(
          DataLossError("no live replica holds ref " + cmd.ref.id.ShortHex()));
    manager_fetches_.erase(it);
  }
}

bool Manager::AdvanceManagerFetch(ManagerFetch& fetch) {
  // The next untried holder in ring order; a failed send tries the one after.
  for (;;) {
    const auto candidate = core_.ring().FindFrom(
        fetch.ref.id.Prefix64(), [&](WorkerId worker) {
          return !fetch.tried.contains(worker) &&
                 replicas_.HasReplica(fetch.ref.id, worker);
        });
    if (!candidate) return false;
    fetch.tried.insert(*candidate);
    if (SendTo(*candidate, FetchBlobMsg{fetch.ref.id, 0, {}}).ok()) {
      fetch.source = *candidate;
      return true;
    }
  }
}

void Manager::HandleManagerBlobData(BlobDataMsg msg) {
  auto it = manager_fetches_.find(msg.id);
  if (it == manager_fetches_.end()) return;  // stale reply (already resolved)
  // A payload that failed its frame CRC arrives as a miss (DecodeFrame), so
  // ok means intact: a ref id names its producer and has nothing to hash.
  if (msg.ok) {
    // Cache at the manager so repeated FetchRef calls are free; dropped
    // again when the ref is released.
    (void)manager_store_.PutTrusted(msg.id, msg.payload);
    for (auto& waiter : it->second.waiters)
      waiter->set_value(msg.payload);
    manager_fetches_.erase(it);
    return;
  }
  // Miss or damaged copy: try the next holder; out of holders = data loss.
  if (!AdvanceManagerFetch(it->second)) {
    for (auto& waiter : it->second.waiters)
      waiter->set_value(DataLossError(
          "every replica of ref " + msg.id.ShortHex() + " failed" +
          (msg.error.empty() ? "" : ": " + msg.error)));
    manager_fetches_.erase(it);
  }
}

}  // namespace vinelet::core
