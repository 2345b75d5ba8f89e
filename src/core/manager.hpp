// Manager: the control plane of the real runtime.
//
// Mirrors TaskVine's single-threaded manager: one event loop owns all
// scheduling state and consumes (a) worker messages and (b) API commands
// queued by application threads.  It implements the paper's three mechanisms
// end-to-end:
//
//  * discover — CreateLibraryFromFunctions packages function code
//    (serialized blobs), software dependencies (poncho-analyzed environment
//    tarball), shared input data and the context-setup binding into a
//    LibrarySpec (§3.2);
//  * distribute — content-addressed files flow to workers manager-direct or
//    via capped peer pushes chosen from the replica table (§3.3);
//  * retain — libraries are installed once per worker, invocations are
//    routed to instances with free slots, and empty libraries are evicted
//    when another function's invocations are starved (§3.4, §3.5.2).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/clock.hpp"
#include "core/blob_ref.hpp"
#include "core/control_core.hpp"
#include "core/future.hpp"
#include "core/introspect.hpp"
#include "core/protocol.hpp"
#include "net/network.hpp"
#include "poncho/analyzer.hpp"
#include "serde/function_registry.hpp"
#include "storage/broadcast.hpp"
#include "storage/content_store.hpp"
#include "storage/replica_table.hpp"
#include "telemetry/telemetry.hpp"

namespace vinelet::core {

struct ManagerConfig {
  /// Enable worker-to-worker transfers (Fig 3b); off = Fig 3a.
  bool peer_transfers = true;
  /// Retries before a task/invocation fails permanently (worker churn).
  int max_attempts = 3;
  /// A broadcast with no progress for this long re-probes every pending
  /// worker with an (idempotent) duplicate of chunk 0.  Live workers drop
  /// the duplicate; dead relays make the send fail, which is what triggers
  /// subtree recovery for a worker that crashed after its chunks were
  /// accepted by the transport but before it confirmed.
  double broadcast_probe_s = 0.5;
  /// Context-affinity invocation routing + library autoscaling knobs.
  SchedulerConfig scheduler;
  /// Declarative per-library latency/goodput targets.  When any target is
  /// configured the manager evaluates a sliding window of invocation
  /// resolutions and ships the verdicts inside ClusterStatus.
  telemetry::SloConfig slo;
  const serde::FunctionRegistry* registry = nullptr;  // default: Global()
  /// Shared telemetry (metrics registry + span tracer).  Pass the same
  /// handle to FactoryConfig so manager and worker metrics/spans land
  /// together; null = the manager owns a private instance.
  telemetry::Telemetry* telemetry = nullptr;
};

struct ManagerMetrics {
  std::uint64_t tasks_completed = 0;
  std::uint64_t invocations_completed = 0;
  std::uint64_t libraries_deployed = 0;  // cumulative instances installed
  std::uint64_t libraries_active = 0;
  std::uint64_t libraries_evicted = 0;
  std::uint64_t retries = 0;
  std::uint64_t peer_transfers = 0;
  std::uint64_t manager_transfers = 0;

  /// Pass-by-reference data plane: results that stayed on their producing
  /// worker (and the payload bytes the manager therefore never relayed),
  /// and refs garbage-collected after release.
  std::uint64_t ref_results = 0;
  std::uint64_t ref_result_bytes = 0;
  std::uint64_t refs_dropped = 0;

  /// Scheduler telemetry: did an invocation arrive to retained context
  /// (a ready instance of its library existed somewhere), and how often did
  /// the autoscaler recruit cold capacity beyond the warm affinity set.
  std::uint64_t affinity_hits = 0;
  std::uint64_t affinity_misses = 0;
  std::uint64_t steals = 0;
  std::uint64_t autoscale_deploys = 0;
  std::uint64_t autoscale_evicts = 0;

  /// Sum of worker memory currently occupied by retained contexts across
  /// all active libraries (reported by workers at LibraryReady, §2.1.3).
  std::uint64_t retained_context_bytes = 0;

  /// Setup-cost breakdown reported by the most recently readied library
  /// (transfer / unpack / context-setup), for overhead studies (Table 5).
  TimingBreakdown last_library_setup;

  /// Average invocations served per deployed library (Fig 11's share value).
  double AvgShareValue() const {
    return libraries_deployed == 0
               ? 0.0
               : static_cast<double>(invocations_completed) /
                     static_cast<double>(libraries_deployed);
  }
};

/// End-state invariant report produced by Manager::CheckQuiescent().
/// The chaos harness calls it after WaitAll: a drained cluster must hold no
/// queued/running work, no in-flight transfers or broadcasts, consistent
/// per-worker resource accounting, and gauges equal to their true values.
/// Transitional states (an instance still staging/installing/draining) are
/// reported as violations so callers poll until the cluster settles.
struct QuiescenceReport {
  bool quiescent = true;
  std::vector<std::string> violations;

  std::uint64_t outstanding_futures = 0;
  std::size_t task_queue = 0;
  std::size_t running_tasks = 0;
  std::size_t transfers = 0;
  std::size_t broadcasts = 0;
  std::size_t queued_calls = 0;
  std::size_t running_invocations = 0;
  std::size_t instances = 0;
  std::uint64_t libraries_active_gauge = 0;
  std::uint64_t retained_context_bytes_gauge = 0;
  /// (library, worker) pairs in the affinity index at audit time; the audit
  /// recomputes the whole table from the instance map and reports every
  /// stale or missing entry (e.g. one left behind by a worker death).
  std::size_t affinity_entries = 0;
  std::uint64_t affinity_warm_gauge = 0;
  /// Pass-by-reference audit: tracked refs (each must have ≥1 live replica
  /// and a consumer refcount matching the queued/running calls) and their
  /// total payload bytes retained on workers.
  std::size_t refs_tracked = 0;
  std::uint64_t ref_bytes = 0;

  std::string ToString() const;
};

/// Deployment knobs for CreateLibraryFromFunctions.
struct LibraryOptions {
  Resources resources = Resources::All();
  std::uint32_t slots = 1;
  ExecMode exec_mode = ExecMode::kDirect;
  /// Modeled size of each serialized function blob.
  std::size_t function_code_size = 4096;
};

class Manager {
 public:
  Manager(std::shared_ptr<net::Transport> network, ManagerConfig config = {});
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  Status Start();
  void Stop();

  // --- data plane (thread-safe, callable from any thread) -----------------

  /// Declares a blob as a named, content-addressed input file and stores
  /// its payload at the manager (the equivalent of vine.File(..., cache=,
  /// peer_transfer=) in Fig 5).
  storage::FileDecl DeclareBlob(const std::string& name, Blob payload,
                                storage::FileKind kind, bool cache = true,
                                bool peer_transfer = true, bool unpack = false);

  /// Distributes a declared blob to every currently-connected worker through
  /// the chunk-pipelined spanning tree (§3.3 + cut-through relay): the blob
  /// is split into `chunk_bytes` chunks, every receiver forwards chunk k to
  /// its tree children as soon as it arrives, and each destination
  /// reassembles and hash-verifies before its ContentStore admits the blob.
  /// Resolves once every worker holds a verified replica; workers that die
  /// mid-broadcast are dropped, and their orphaned subtrees are re-fed
  /// directly from the manager.  `chunk_bytes` 0 = default (4 MB);
  /// `fanout_cap` 0 = storage::kWorkerTransferCap, the §3.3 N.
  FuturePtr BroadcastFile(const storage::FileDecl& decl,
                          std::uint64_t chunk_bytes = 0,
                          unsigned fanout_cap = 0);

  // --- function-context API (Fig 5) ---------------------------------------

  /// Discovers the context of `function_names`: serializes each function,
  /// optionally runs the poncho analyzer to package their software
  /// dependencies, and binds the setup function.  Additional shared input
  /// data can be attached with AddLibraryInput before InstallLibrary.
  Result<LibrarySpec> CreateLibraryFromFunctions(
      const std::string& library_name,
      const std::vector<std::string>& function_names,
      const std::string& setup_name = "",
      const serde::Value& setup_args = serde::Value(),
      const poncho::Analyzer* analyzer = nullptr,
      const LibraryOptions& options = LibraryOptions());

  void AddLibraryInput(LibrarySpec& spec, storage::FileDecl decl) const;

  /// Registers the library template; instances are deployed lazily when
  /// invocations arrive.
  Status InstallLibrary(LibrarySpec spec);

  // --- submission ----------------------------------------------------------

  /// Submits a stateless task (L1/L2 execution).  `inputs` with cache=false
  /// ride inline with the task on every execution; cache=true inputs are
  /// staged once per worker.
  FuturePtr SubmitTask(const std::string& function_name,
                       const serde::Value& args,
                       std::vector<storage::FileDecl> inputs,
                       Resources resources,
                       bool ship_serialized_function = true,
                       std::size_t function_code_size = 4096);

  /// Submits a FunctionCall against an installed library (L3 execution):
  /// only the arguments travel.
  FuturePtr SubmitCall(const std::string& library_name,
                       const std::string& function_name,
                       const serde::Value& args);

  // --- pass-by-reference data plane ---------------------------------------

  /// Materializes a ref's payload at the application: the manager fetches it
  /// from a surviving replica (nearest by hash ring) and caches it so
  /// repeated fetches of the same ref are free.  This is the only point
  /// where ref payload bytes cross the manager — DAG edges never do.
  Result<Blob> FetchRef(const BlobRef& ref, double timeout_s = 10.0);

  /// Declares the application done with a ref.  Once every already-dispatched
  /// consumer has settled, the manager sends DropBlob to every replica holder
  /// and forgets the ref; submitting new consumers after release races the
  /// drop and may fail with kDataLoss.
  Status ReleaseRef(const BlobRef& ref);

  // --- control -------------------------------------------------------------

  /// Blocks until every submitted task/call has resolved.
  /// timeout_s < 0 waits forever; kTimeout on expiry.
  Status WaitAll(double timeout_s = -1.0);

  /// Blocks until `count` workers are connected.
  Status WaitForWorkers(std::size_t count, double timeout_s = 30.0);

  std::size_t connected_workers() const;

  /// Legacy aggregate view, assembled from the telemetry registry.
  ManagerMetrics metrics() const;

  /// Collects a live ClusterStatus: manager-side queue depths and broadcast
  /// progress plus one StatusReplyMsg per connected worker, with straggler
  /// flags derived from rolling invocation latencies.  Blocks the calling
  /// thread until every worker answered (or died) or `timeout_s` expired.
  Result<ClusterStatus> QueryStatus(double timeout_s = 5.0);

  /// Debug API for the chaos harness: verifies on the manager thread that
  /// every scheduler structure has drained and every gauge matches the
  /// state it summarizes.  Blocks the calling thread; safe any time the
  /// manager is running.  See QuiescenceReport for what is checked.
  Result<QuiescenceReport> CheckQuiescent(double timeout_s = 5.0);

  /// The telemetry sink this manager reports into (shared or owned).
  telemetry::Telemetry& telemetry() const { return *telemetry_; }

 private:
  // ---- command plumbing (application thread -> manager thread) ----
  struct InstallCmd {
    LibrarySpec spec;
  };
  struct TaskCmd {
    TaskSpec spec;  // inline_files empty; inputs split at enqueue
    FuturePtr future;
    double submitted_s = 0;  // telemetry clock at SubmitTask
  };
  struct CallCmd {
    std::string library;
    std::string function;
    Blob args;
    FuturePtr future;
    double submitted_s = 0;
  };
  struct BroadcastCmd {
    storage::FileDecl decl;
    std::uint64_t chunk_bytes = 0;
    unsigned fanout_cap = 0;
    FuturePtr future;
    double submitted_s = 0;
  };
  /// Synthesized when the network reports an endpoint vanished (abrupt
  /// worker death with no Goodbye).
  struct DisconnectCmd {
    WorkerId worker = 0;
  };
  /// Introspection request from an application thread (QueryStatus).
  struct StatusCmd {
    std::shared_ptr<std::promise<Result<ClusterStatus>>> promise;
  };
  /// Invariant audit request from an application thread (CheckQuiescent).
  struct QuiescenceCmd {
    std::shared_ptr<std::promise<QuiescenceReport>> promise;
  };
  /// Application thread wants a ref's payload bytes (FetchRef).
  struct FetchRefCmd {
    BlobRef ref;
    std::shared_ptr<std::promise<Result<Blob>>> promise;
  };
  /// Application thread is done with a ref (ReleaseRef).
  struct ReleaseRefCmd {
    BlobRef ref;
  };
  using Command =
      std::variant<InstallCmd, TaskCmd, CallCmd, BroadcastCmd, DisconnectCmd,
                   StatusCmd, QuiescenceCmd, FetchRefCmd, ReleaseRefCmd>;

  // ---- scheduler state (manager thread only) ----
  static constexpr std::size_t kLatencyWindow = 64;

  /// A stateless task: queued in core_ while `worker` is 0, else placed.
  struct Task {
    TaskSpec spec;  // inputs = cached decls only
    std::vector<storage::FileDecl> inline_decls;
    FuturePtr future;
    int attempts = 0;
    double submitted_s = 0;  // telemetry clock at SubmitTask
    double queued_s = 0;     // telemetry clock at (re)enqueue
    /// Causal trace of this task; root span emitted at submit, advanced at
    /// each dispatch so downstream worker spans chain off it.
    telemetry::TraceContext trace;
    WorkerId worker = 0;
    std::size_t pending_files = 0;
    double staged_at = 0;  // telemetry clock when staging began
    double transfer_wait_s = 0;
  };

  struct PendingCall {
    InvocationId id = 0;
    std::string library;
    std::string function;
    Blob args;
    /// Arguments that arrived as WrapRef dicts, discovered once at submit.
    /// `source` is stamped at each dispatch (it names the replica the worker
    /// fetches from), and kept here so a source death can cancel the fetch.
    std::vector<RefArg> ref_args;
    FuturePtr future;
    int attempts = 0;
    double submitted_s = 0;
    double queued_s = 0;
    telemetry::TraceContext trace;
  };

  /// The manager's half of a library instance: staging, telemetry and
  /// tracing.  Its control half (state, slots, calls) lives in core_.
  struct InstanceInfo {
    std::size_t pending_files = 0;
    std::uint64_t context_memory = 0;  // reported at LibraryReady
    double ready_s = 0;                // telemetry clock at LibraryReady
    /// Trace of the call that triggered this deployment; library staging and
    /// install spans chain off it.
    telemetry::TraceContext trace;
  };

  struct TransferKey {
    WorkerId dest;
    hash::ContentId id;
    auto operator<=>(const TransferKey&) const = default;
  };

  /// Something waiting for a file to land on a worker.
  struct Waiter {
    bool is_instance = false;
    std::uint64_t id = 0;  // TaskId or LibraryInstanceId
  };

  struct Transfer {
    storage::FileDecl decl;
    storage::SourceChoice source;
    std::vector<Waiter> waiters;
    int attempts = 0;
    double started_s = 0;  // telemetry clock when the send went out
    /// Trace of the first waiter; the transfer span and the worker-side
    /// admission span chain off it.
    telemetry::TraceContext trace;
  };

  /// One in-flight chunked broadcast (manager thread only).
  struct BroadcastState {
    storage::FileDecl decl;
    std::uint64_t chunk_bytes = 0;
    std::uint64_t num_chunks = 0;
    /// Snapshot of the worker set at launch; plan indices map into it.
    std::vector<WorkerId> order;
    storage::PipelinePlan plan;
    std::set<WorkerId> pending;  // destinations not yet confirmed
    std::map<WorkerId, int> attempts;
    FuturePtr future;
    double started_s = 0;
    double last_probe_s = 0;
    /// Root trace of the broadcast; every PutChunkMsg (including probes and
    /// direct resends) carries it so relay spans link back here.
    telemetry::TraceContext trace;
  };

  /// One manager-tracked pass-by-reference result (manager thread only).
  /// Placement truth lives in replicas_; this records the payload size, how
  /// many dispatched-or-queued consumers still reference it, and whether the
  /// application released it (the GC precondition).
  struct RefInfo {
    std::uint64_t size = 0;
    std::uint64_t pending_consumers = 0;
    bool released = false;
  };

  /// One in-flight FetchRef materialization (manager thread only): the
  /// replica currently serving it, holders already tried, and the blocked
  /// application threads.
  struct ManagerFetch {
    BlobRef ref;
    WorkerId source = 0;
    std::set<WorkerId> tried;
    std::vector<std::shared_ptr<std::promise<Result<Blob>>>> waiters;
  };

  /// One in-flight QueryStatus (manager thread only).  A second query that
  /// arrives while one is active resolves the first with partial data.
  struct StatusQuery {
    std::shared_ptr<std::promise<Result<ClusterStatus>>> promise;
    ClusterStatus status;
    std::set<WorkerId> awaiting;
    bool active = false;
  };

  /// Queues a command for the manager thread and wakes the thread if it
  /// is parked on its inbox.  False once the manager has stopped.
  bool Post(Command command);

  // ---- manager-thread methods ----
  void Run();
  void HandleFrame(const net::Frame& frame);
  void HandleCommand(Command command);
  void TrySchedule();
  /// Queues (or requeues) a task in core_.
  void QueueTask(Task& task);
  /// Stages a placed task's cached inputs, then dispatches it.
  void StartTask(const ControlCore::Decision& place);

  /// Carries out the control core's decisions in order.
  void Carry(const std::vector<ControlCore::Decision>& decisions);
  /// Sends a dispatch decision's calls — one RunInvocationMsg when a single
  /// call goes, one RunInvocationBatchMsg otherwise.
  void SendCalls(const ControlCore::Decision& dispatch);
  /// Stages a deployed instance's inputs, then installs it.
  void StageInstance(const ControlCore::Decision& deploy);
  /// RouteHooks::unrunnable: fails a queued call whose ref arguments lost
  /// every replica (the producer already resolved, so it can never run).
  bool FailUnrunnable(InvocationId id);
  /// RouteHooks::narrow: keeps the warm instances whose workers hold the
  /// most ref-argument bytes of the call.
  void NarrowByRefs(InvocationId id,
                    std::vector<LibraryInstanceId>& candidates);

  /// Begins staging `decl` onto `worker` (or joins an in-flight transfer).
  /// Returns true if the file still needs to arrive (waiter recorded).
  /// Returns false — with NO waiter recorded — when the file cannot be
  /// staged at all (payload missing from the manager store); callers either
  /// dispatch without the file (the worker fails it cleanly) or fail the
  /// waiter, but must never wait on a transfer that was never started.
  bool StageFile(const storage::FileDecl& decl, WorkerId worker,
                 Waiter waiter, telemetry::TraceContext trace);
  void CompleteTransfer(WorkerId worker, const hash::ContentId& id,
                        bool success, const std::string& error);

  // ---- chunked pipelined broadcast (manager thread) ----
  void StartBroadcast(BroadcastCmd cmd);
  /// Sends every chunk of `state.decl` straight from the manager to `worker`
  /// with no relay route (recovery path; reassembly dedupes overlaps).
  void ResendBroadcastDirect(BroadcastState& state, WorkerId worker);
  void CompleteBroadcastReady(WorkerId worker, const hash::ContentId& id);
  void FailBroadcastWorker(WorkerId worker, const hash::ContentId& id,
                           const std::string& error);
  /// Removes the dead worker from every active broadcast and re-feeds its
  /// orphaned subtree directly from the manager.
  void HandleBroadcastWorkerDeath(WorkerId worker);
  void FinishBroadcast(std::map<hash::ContentId, BroadcastState>::iterator it);
  void ProbeBroadcasts();
  void DispatchTask(Task& task);
  void DispatchInstall(LibraryInstanceId id);

  /// Send failures and Goodbyes enqueue here; ProcessDeadWorkers reaps them
  /// between event batches so no scheduling loop ever mutates the worker
  /// table out from under itself.
  void ProcessDeadWorkers();
  void OnWorkerDead(WorkerId worker);
  /// Permanently fails one transfer waiter: unwinds the placement (worker
  /// sets, claimed resources) and, for task waiters, resolves the future.
  /// Staging instances are discarded; their calls stay queued and retry.
  void FailWaiter(const Waiter& waiter, const Status& status);
  void RunQuiescenceCheck(QuiescenceCmd cmd);
  /// Puts a (still tabled) call back at the front of its library's queue.
  void RequeueCall(PendingCall& call);
  void FinishOne();  // decrement outstanding + notify WaitAll

  // ---- pass-by-reference data plane (manager thread) ----
  /// Discovers WrapRef dicts in the call's argument list (once, at submit)
  /// and counts the call as a pending consumer of each tracked ref.
  void RegisterRefArgs(PendingCall& call);
  /// The call resolved (success or permanent failure): release its claim on
  /// every ref argument and GC refs that became droppable.
  void SettleCallRefs(const PendingCall& call);
  /// Sends DropBlob to every holder and forgets the ref, iff it was released
  /// and no dispatched/queued consumer still references it.
  void MaybeDropRef(const hash::ContentId& id);
  /// Nearest replica of `id` by hash-ring order, excluding `target`;
  /// 0 when no live worker holds it.
  WorkerId PickRefSource(const hash::ContentId& id, WorkerId target) const;
  void HandleFetchRefCmd(FetchRefCmd cmd);
  /// Directs the fetch at the next untried holder; false when none is left.
  bool AdvanceManagerFetch(ManagerFetch& fetch);
  void HandleManagerBlobData(BlobDataMsg msg);

  // ---- live introspection (manager thread) ----
  void StartStatusQuery(StatusCmd cmd);
  void HandleStatusReply(WorkerId worker, const StatusReplyMsg& msg);
  void FinalizeStatusQuery();

  /// `attachment_crc`: as for EncodeFrame.
  Status SendTo(WorkerId worker, const Message& message,
                std::optional<std::uint32_t> attachment_crc = {});

  /// Time on the shared telemetry clock (span and queue-wait time base).
  double Now() const { return telemetry_->clock.Now(); }

  // ---- shared (mutex-guarded) ----
  std::shared_ptr<net::Transport> network_;
  ManagerConfig config_;
  const serde::FunctionRegistry* registry_;

  std::shared_ptr<net::Inbox> inbox_;
  Channel<Command> commands_;
  /// Set while the manager thread waits on inbox_ (see Post).
  std::atomic<bool> parked_{false};
  std::thread thread_;
  bool started_ = false;

  storage::ContentStore manager_store_;  // declared file payloads

  mutable std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  std::uint64_t outstanding_ = 0;
  std::size_t worker_count_ = 0;

  // ---- telemetry ----
  // All counters live in the (possibly shared) registry; the struct caches
  // the handles so hot paths skip the name lookup.  Gauges are only written
  // from the manager thread, so their read-modify-write clamps are safe.
  std::unique_ptr<telemetry::Telemetry> owned_telemetry_;  // unconfigured case
  telemetry::Telemetry* telemetry_ = nullptr;
  struct MetricHandles {
    telemetry::Counter* tasks_completed = nullptr;
    telemetry::Counter* invocations_completed = nullptr;
    telemetry::Counter* libraries_deployed = nullptr;
    telemetry::Counter* libraries_evicted = nullptr;
    telemetry::Counter* retries = nullptr;
    telemetry::Counter* peer_transfers = nullptr;
    telemetry::Counter* manager_transfers = nullptr;
    telemetry::Counter* peer_transfer_bytes = nullptr;
    telemetry::Counter* manager_transfer_bytes = nullptr;
    telemetry::Counter* ref_results = nullptr;
    telemetry::Counter* ref_result_bytes = nullptr;
    telemetry::Counter* refs_dropped = nullptr;
    // Broadcast recovery traffic, kept separate from the admission-time
    // payload accounting so retries never double-count broadcast bytes.
    telemetry::Counter* broadcast_resends = nullptr;
    telemetry::Counter* broadcast_resend_bytes = nullptr;
    telemetry::Counter* affinity_hits = nullptr;
    telemetry::Counter* affinity_misses = nullptr;
    telemetry::Counter* steals = nullptr;
    telemetry::Counter* autoscale_deploys = nullptr;
    telemetry::Counter* autoscale_evicts = nullptr;
    telemetry::Gauge* affinity_warm_instances = nullptr;
    telemetry::Gauge* libraries_active = nullptr;
    telemetry::Gauge* retained_context_bytes = nullptr;
    telemetry::Gauge* setup_transfer_s = nullptr;
    telemetry::Gauge* setup_worker_s = nullptr;
    telemetry::Gauge* setup_deserialize_s = nullptr;
    telemetry::Gauge* setup_context_s = nullptr;
    telemetry::Gauge* setup_exec_s = nullptr;
    telemetry::Histogram* task_roundtrip_s = nullptr;
    telemetry::Histogram* invocation_roundtrip_s = nullptr;
    telemetry::Histogram* dispatch_batch_size = nullptr;
  } m_;

  std::atomic<std::uint64_t> next_task_id_{1};
  std::atomic<std::uint64_t> next_invocation_id_{1};

  // ---- manager-thread-only state ----
  /// Control state and decisions: task and call queues, instances,
  /// per-worker allocators, the ring and the affinity sets.
  ControlCore core_;
  ControlCore::RouteHooks route_;
  /// Rolling window of invocation round-trip latencies per worker (newest
  /// last, capped at kLatencyWindow) feeding QueryStatus straggler detection.
  std::map<WorkerId, std::deque<double>> latency_s_;
  storage::ReplicaTable replicas_;
  std::map<std::string, LibrarySpec> libraries_;
  /// Every call queued in or running on core_, by id.
  std::unordered_map<InvocationId, PendingCall> calls_;
  std::map<LibraryInstanceId, InstanceInfo> instance_info_;
  /// Every task queued in or placed by core_, by id.
  std::unordered_map<TaskId, Task> tasks_;
  std::map<TransferKey, Transfer> transfers_;
  std::map<hash::ContentId, BroadcastState> broadcasts_;
  /// Pass-by-reference results the cluster still retains (see RefInfo).
  std::map<hash::ContentId, RefInfo> refs_;
  /// FetchRef materializations awaiting a BlobDataMsg reply.
  std::map<hash::ContentId, ManagerFetch> manager_fetches_;
  std::set<WorkerId> pending_dead_;
  StatusQuery status_query_;
  /// Sliding-window SLO evaluator; fed on the manager thread at every
  /// invocation resolution, read by StartStatusQuery.
  telemetry::SloMonitor slo_monitor_;
};

}  // namespace vinelet::core
