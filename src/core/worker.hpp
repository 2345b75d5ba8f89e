// Worker: one compute node of the real runtime.
//
// A worker is a thread with an inbox, a local content-addressed cache
// ("local disk"), an unpack registry, and a set of resident library
// instances.  It executes stateless tasks (L1/L2), hosts libraries that
// retain function contexts (L3), and serves peer transfers so contexts can
// spread worker-to-worker (Fig 3b).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "core/library_runtime.hpp"
#include "core/protocol.hpp"
#include "core/resources.hpp"
#include "core/unpack_registry.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "serde/function_registry.hpp"
#include "storage/content_store.hpp"
#include "telemetry/telemetry.hpp"

namespace vinelet::core {

struct WorkerConfig {
  WorkerId id = 1;
  Resources resources{32, 64 * 1024, 64 * 1024};  // paper §4.2 worker shape
  std::uint64_t cache_capacity_bytes = 0;         // 0 = unbounded
  const serde::FunctionRegistry* registry = nullptr;  // default: Global()
  /// Shared telemetry; usually the same handle the manager was given, so
  /// worker cache/unpack metrics and execution spans land alongside the
  /// manager's.  Null = private instance.
  telemetry::Telemetry* telemetry = nullptr;
  /// Fault injector for chaos testing: injects task/invocation/setup
  /// failures and straggler delays keyed by this worker's endpoint id.
  /// Null = no injected faults.
  std::shared_ptr<net::FaultInjector> fault;
  /// Pass-by-reference results: library invocation results of at least this
  /// many serialized bytes are retained in the worker's store and reported
  /// to the manager as a BlobRef instead of inline bytes.  0 (the default)
  /// disables the ref data plane: every result ships by value.
  std::uint64_t ref_results_min_bytes = 0;
};

class Worker {
 public:
  Worker(std::shared_ptr<net::Transport> network, WorkerConfig config);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Registers the endpoint, announces itself to the manager (Hello), and
  /// starts the inbox loop.
  Status Start();

  /// Graceful shutdown: Goodbye, stop libraries, join everything.
  void Stop();

  /// Simulated crash: vanish without a Goodbye.  The manager learns of the
  /// death when its next send fails, exactly like a TCP reset.
  void Kill();

  WorkerId id() const noexcept { return config_.id; }
  storage::ContentStore& store() noexcept { return store_; }
  const storage::ContentStore& store() const noexcept { return store_; }
  std::size_t libraries_hosted() const;
  std::uint64_t tasks_executed() const noexcept {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  void Handle(net::Frame frame);
  void HandlePutFile(PutFileMsg msg);
  void HandlePushFile(const PushFileMsg& msg);
  /// `chunk_crc` is the verified CRC of the chunk, reused when relaying it.
  void HandlePutChunk(PutChunkMsg msg, std::uint32_t chunk_crc);
  void HandleExecuteTask(ExecuteTaskMsg msg, double decode_s);
  void HandleInstallLibrary(InstallLibraryMsg msg, double decode_s);
  void HandleRemoveLibrary(const RemoveLibraryMsg& msg);
  void HandleRunInvocation(RunInvocationMsg msg);
  void HandleRunInvocationBatch(RunInvocationBatchMsg msg);
  void HandleFetchBlob(const FetchBlobMsg& msg, net::EndpointId requester);
  void HandleBlobData(BlobDataMsg msg);
  void HandleDropBlob(const DropBlobMsg& msg);
  void HandleCancelFetch(const CancelFetchMsg& msg);
  void HandleStatusRequest();

  /// Submits an invocation whose ref arguments are all locally resident;
  /// answers not-present if the library instance is gone.
  void SubmitReady(RunInvocationMsg msg);
  /// Parks an invocation with missing ref payloads and issues peer fetches
  /// for each one (deduplicated per content id).  Inbox thread only.
  void ParkAndFetch(RunInvocationMsg msg);
  void StartFetch(const RefArg& ref_arg, InvocationId waiter);
  /// Fails every invocation parked on `id` (the manager requeues them and
  /// re-stamps a surviving source) and forgets the fetch.
  void FailFetch(const hash::ContentId& id, const std::string& error);

  /// Runs a stateless task; executes on a task thread.  `trace` is the
  /// manager's staging-span context; the exec span context rides back on
  /// the TaskDoneMsg.
  TaskDoneMsg ExecuteTask(const TaskSpec& task, double decode_s,
                          telemetry::TraceContext trace);

  void SendToManager(const Message& message);
  void ReapTaskThreads(bool all);

  std::shared_ptr<net::Transport> network_;
  WorkerConfig config_;
  const serde::FunctionRegistry* registry_;
  storage::ContentStore store_;
  UnpackRegistry unpacked_;
  WallClock clock_;

  // ---- telemetry ----
  std::unique_ptr<telemetry::Telemetry> owned_telemetry_;  // unconfigured case
  telemetry::Telemetry* telemetry_ = nullptr;
  std::string track_;  // span track label, "worker-<id>"
  struct MetricHandles {
    telemetry::Counter* files_received = nullptr;
    telemetry::Counter* bytes_received = nullptr;
    telemetry::Counter* peer_pushes = nullptr;
    telemetry::Counter* peer_push_bytes = nullptr;
    telemetry::Counter* chunks_received = nullptr;
    telemetry::Counter* chunks_relayed = nullptr;
    telemetry::Counter* unpacks = nullptr;
    telemetry::Histogram* unpack_s = nullptr;
    telemetry::Histogram* task_exec_s = nullptr;
  } m_;

  /// In-progress chunked broadcast reassembly, keyed by content id.
  /// Inbox-thread only.  Duplicate chunks (manager re-sends after a relay
  /// death) are dropped here, which is what makes recovery idempotent.
  struct ChunkAssembly {
    storage::FileDecl decl;
    std::vector<Blob> chunks;
    std::vector<bool> have;
    std::size_t received = 0;
  };
  std::map<hash::ContentId, ChunkAssembly> assemblies_;

  /// An invocation waiting for ref-argument payloads to land.  Inbox-thread
  /// only.  `awaiting` counts distinct content ids still in flight; the
  /// invocation submits when it reaches zero.
  struct ParkedInvocation {
    RunInvocationMsg msg;
    std::size_t awaiting = 0;
  };
  std::map<InvocationId, ParkedInvocation> parked_;

  /// One in-flight peer fetch, keyed by ref id so concurrent consumers
  /// of the same ref share a single FetchBlob round trip.  Inbox-thread
  /// only.
  struct FetchState {
    WorkerId source = 0;
    std::vector<InvocationId> waiters;
  };
  std::map<hash::ContentId, FetchState> fetches_;
  std::uint64_t next_fetch_tag_ = 1;

  // ---- data-plane counters (reported via StatusReplyMsg) ----
  std::atomic<std::uint64_t> refs_held_{0};
  std::atomic<std::uint64_t> p2p_fetch_bytes_{0};
  std::atomic<std::uint64_t> p2p_serve_bytes_{0};
  std::atomic<std::uint64_t> relayed_result_bytes_{0};

  std::shared_ptr<net::Inbox> inbox_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> tasks_executed_{0};

  mutable std::mutex libraries_mu_;
  std::map<LibraryInstanceId, std::unique_ptr<LibraryRuntime>> libraries_;
  /// Instances whose setup failed: the failure callback runs on the
  /// library's own thread, so it cannot destroy (join) itself; the corpse
  /// is parked here and reaped at shutdown, after its thread has exited.
  std::vector<std::unique_ptr<LibraryRuntime>> dead_libraries_;

  std::mutex tasks_mu_;
  std::vector<std::thread> task_threads_;
};

}  // namespace vinelet::core
