// VineSim: the simulated TaskVine runtime at cluster scale.
//
// Reproduces the execution dynamics the evaluation measures — manager
// dispatch throughput, shared-FS contention (L1), per-worker environment
// caching with spanning-tree distribution (L2/L3), resident libraries with
// one invocation slot each (L3, the paper's LNNI configuration, which is how
// Fig 10's ~2,400 libraries on 150 workers arise), co-located-invocation
// interference, optional worker churn, and machine heterogeneity — in
// virtual time on the DES kernel.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "core/control_core.hpp"
#include "core/types.hpp"
#include "net/fault.hpp"
#include "sim/cluster.hpp"
#include "sim/cost_model.hpp"
#include "sim/des.hpp"
#include "sim/resources.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/timeseries.hpp"

namespace vinelet::sim {

/// One invocation to execute: a function class plus a per-invocation
/// execution-time multiplier (workload mixes pre-sample these).
struct InvocationSpec {
  const WorkloadCosts* costs = nullptr;
  double exec_scale = 1.0;
  /// Library the invocation targets (L3).  The single-library workloads
  /// leave this 0; Zipf-popularity mixes spread it over many libraries so
  /// per-library affinity sets matter.
  std::size_t library = 0;
  /// Virtual submission time.  0 (the default) submits at t=0, the closed
  /// batch of the figure workloads.  A positive value turns the run into an
  /// open system: the invocation enters its queue at `arrival_s`, which is
  /// what makes warm-context retention measurable (a drained queue may
  /// refill, so evicting the wrong instance costs a future cold start).
  double arrival_s = 0;
};

/// One completed invocation's lifecycle, for offline analysis.
struct InvocationTrace {
  std::size_t invocation = 0;
  std::size_t worker = 0;
  std::size_t machine_group = 0;
  double dispatched = 0;  // manager committed the placement
  double started = 0;     // worker began processing (run time = finished-started)
  double finished = 0;
  int level = 0;          // reuse level of the run (1, 2 or 3)
  // Phase breakdown of the final attempt (Table 5's columns).
  double transfer_s = 0;  // shared-FS reads / env transfer wait
  double unpack_s = 0;    // env expansion + local staging reads
  double setup_s = 0;     // deserialize + context rebuild / setup
  double exec_s = 0;      // the function body
};

struct SimConfig {
  core::ReuseLevel level = core::ReuseLevel::kL3;
  ClusterConfig cluster;
  std::uint64_t seed = 42;

  /// Record (completed, active libraries) and share-value series (Figs 10/11).
  bool track_series = false;

  /// Record a per-invocation InvocationTrace (final attempt per invocation).
  bool track_trace = false;

  /// Mean worker lifetime under churn; 0 disables churn.  The paper's pool
  /// is HTCondor-managed, where eviction and replacement are routine.
  double worker_mean_lifetime_s = 0.0;
  double worker_respawn_delay_s = 15.0;

  /// Disable worker-to-worker context distribution (Fig 3a vs 3b).
  bool peer_transfers = true;

  /// Per-source concurrent env transfer cap N (§3.3).
  unsigned env_fanout = 3;

  /// Chunk size for pipelined (cut-through) env distribution: a replica
  /// begins serving peers as soon as its first chunk lands instead of after
  /// the whole tarball, so distribution makespan approaches
  /// blob_time + depth × chunk_time.  0 = whole-blob store-and-forward.
  /// Only meaningful with peer_transfers.
  std::uint64_t env_chunk_bytes = 0;

  /// L3 only: invocation slots per library instance (§3.5.2).  The paper's
  /// LNNI deployment uses 1 (one library per slot, Fig 10's ~2,400
  /// instances); the alternative strategy is one whole-worker library with
  /// `slots` slots.  Context setup is paid once per instance, so larger
  /// libraries trade deployment cost against sharing granularity.
  std::uint32_t library_slots = 1;

  /// Fault schedule mirrored from the runtime harness: scheduled worker
  /// kills replay at their virtual-time stamps, and the per-worker
  /// setup/invocation/task failure and straggler rates draw from the same
  /// seeded per-worker streams as net::FaultInjector, so one (seed, plan)
  /// pair produces the same fault decisions in sim and runtime.  Worker ids
  /// in the plan are 1-based runtime endpoints; kill events naming workers
  /// beyond the cluster wrap modulo the worker count.  Link-level message
  /// faults (drop/dup/corrupt/delay) have no analogue here — the fluid
  /// model carries no individual messages.
  net::FaultPlan fault;

  /// L3 scheduling knobs.  Every invocation is queued and placed by
  /// core::ControlCore, the same control core the live Manager drives; at
  /// L3 it also deploys and evicts the libraries.  L1/L2 tasks ignore it.
  core::SchedulerConfig scheduler;

  /// Optional telemetry sink.  When its tracer is enabled the simulator
  /// emits the same phase spans as the real runtime (submit, dispatch,
  /// transfer, unpack, context-setup, deserialize, exec, result) stamped
  /// with virtual time — one exporter/breakdown code path for both
  /// backends.  The clock inside is never consulted.
  telemetry::Telemetry* telemetry = nullptr;

  /// Optional windowed time-series sink (requires `telemetry`).  When set,
  /// the simulator publishes the manager's completion metrics
  /// (manager.invocations_completed / invocation_roundtrip_s /
  /// libraries_active) into the shared registry and drives SampleAt at
  /// virtual-time window boundaries — the DES twin of the runtime's
  /// BackgroundSampler, emitting the identical JSON-lines schema.  Null
  /// (the default) leaves the registry untouched.
  telemetry::TimeSeriesStore* timeseries = nullptr;
};

/// Marginal manager cost of each invocation after the first inside one
/// RunInvocationBatch dispatch, as a fraction of the per-message dispatch_s.
/// Calibrated against the batched-vs-unbatched encode pair in
/// bench_micro_primitives.
inline constexpr double kBatchItemCostFactor = 0.25;

struct SimResult {
  double makespan = 0.0;
  std::uint64_t invocations_completed = 0;
  RunningStats run_time;           // worker-side run time per invocation
  std::vector<double> run_times;   // raw samples (histograms)

  std::uint64_t libraries_deployed_total = 0;  // cumulative (churn included)
  std::uint64_t libraries_peak_active = 0;
  std::uint64_t env_manager_transfers = 0;
  std::uint64_t env_peer_transfers = 0;
  /// Virtual time when the last env transfer completed: the distribution
  /// makespan the Fig-3 chunk-size sweeps compare against the analytic
  /// planner (transfer only — unpack is excluded on both sides).
  double env_last_transfer_done_s = 0.0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t requeued_invocations = 0;
  double manager_utilization = 0.0;

  // Injected-fault counters from SimConfig::fault (subset of
  // net::FaultStats that applies to the fluid model).
  std::uint64_t injected_kills = 0;
  std::uint64_t injected_setup_failures = 0;
  std::uint64_t injected_invocation_failures = 0;
  std::uint64_t injected_task_failures = 0;
  std::uint64_t injected_stragglers = 0;

  // Affinity-scheduling counters (L3 only), as the Manager counts them.
  std::uint64_t affinity_hits = 0;    // submitted while the library was warm
  std::uint64_t affinity_misses = 0;  // submitted while it was cold
  std::uint64_t steals = 0;           // deploys onto non-affine workers
  std::uint64_t autoscale_deploys = 0;
  std::uint64_t autoscale_evicts = 0;
  std::uint64_t dispatch_batches = 0;  // batched dispatch messages sent
  std::uint64_t dispatch_batched_invocations = 0;
  std::uint64_t dispatch_max_batch = 0;

  TimeSeries active_libraries;  // x = invocations completed
  TimeSeries avg_share_value;   // x = invocations completed

  /// Per-invocation lifecycle records (when SimConfig::track_trace).
  std::vector<InvocationTrace> trace;
};

/// Renders traces as CSV ("invocation,worker,group,dispatched,started,
/// finished,run_time,level,transfer_s,unpack_s,setup_s,exec_s"), sorted by
/// completion time.  The first seven columns are stable; the reuse level
/// and phase columns were appended later.
std::string TraceToCsv(const std::vector<InvocationTrace>& trace);

class VineSim {
 public:
  VineSim(SimConfig config, std::vector<InvocationSpec> invocations);

  /// Runs to completion and returns the collected metrics.
  SimResult Run();

  /// The control core (task and call queues, instances, placement), for
  /// audits.
  const core::ControlCore& control() const { return core_; }

 private:
  struct SimWorker {
    SimWorkerNode node;
    std::uint32_t slots = 16;
    std::uint32_t active = 0;  // invocations currently being processed
    enum class Env { kAbsent, kTransferring, kReady } env = Env::kAbsent;
    std::vector<std::function<void()>> env_waiters;
    // Env lifecycle stamps for span emission and wait attribution.
    double env_transfer_started_s = 0;
    double env_transfer_done_s = 0;
    double env_ready_s = 0;
    /// Causal context of this worker's env distribution: seeded from the
    /// invocation that triggered the transfer, advanced through the
    /// transfer and unpack spans.
    telemetry::TraceContext env_trace;
    std::unique_ptr<FairShareResource> disk;
    bool alive = true;
    std::uint64_t generation = 0;  // incremented on respawn
  };

  /// Submits `invocation` to the control core: to the task queue at L1/L2,
  /// to its library's queue at L3.
  void Enqueue(std::size_t invocation);
  /// Carries out control-core passes until one decides nothing.
  void PumpDispatch();
  void StartOnWorker(std::size_t worker_index, std::uint64_t generation,
                     std::size_t invocation);

  // --- carrying out core::ControlCore's decisions ---
  void Carry(const std::vector<core::ControlCore::Decision>& decisions);
  /// One manager service, then the task starts on the worker it claimed.
  void DispatchTask(const core::ControlCore::Decision& place);
  /// One manager service for the whole batch, then each call starts on the
  /// instance's worker.
  void DispatchBatch(const core::ControlCore::Decision& dispatch);
  /// Stages the environment, then pays the instance's context setup.
  void StartDeploy(const core::ControlCore::Decision& deploy);
  /// Puts a lost or failed L3 call back at the front of its library's queue.
  void RequeueFront(std::size_t invocation);
  static core::WorkerId ControlId(std::size_t worker_index) {
    return static_cast<core::WorkerId>(worker_index + 1);
  }
  void RunL1(SimWorker& worker, std::size_t invocation, double started);
  void RunL2(SimWorker& worker, std::size_t invocation, double started);
  /// Invocation against a warm instance slot of its library.
  void RunL3(SimWorker& worker, std::size_t invocation, double started);

  // --- environment distribution (spanning tree, §3.3) ---
  /// `trace` is the requesting invocation's context; if this call starts
  /// the transfer, the env spans chain off it (first requester wins).
  void EnsureEnv(std::size_t worker_index, std::uint64_t generation,
                 telemetry::TraceContext trace, std::function<void()> ready);
  void RequestEnvTransfer(std::size_t worker_index);
  /// `source_done_s`: predicted completion of the serving replica's own
  /// inbound transfer (≤ now for whole-blob slots; in the future for
  /// cut-through slots released after the source's first chunk).
  void StartPeerEnvTransfer(std::size_t worker_index, double source_done_s);
  void OnEnvTransferDone(std::size_t worker_index, std::uint64_t generation,
                         bool from_manager);
  /// Releases `count` upload slots tagged with the holder's predicted
  /// completion time (`source_done_s`), serving queued workers first.
  void ReleaseEnvServingSlots(unsigned count, double source_done_s);
  /// Chunked mode only: schedules the release of the new replica's upload
  /// slots one chunk-time after its transfer starts (cut-through relay).
  void ScheduleEarlyServe(std::size_t worker_index, std::uint64_t generation,
                          double rate_Bps, double finish_s);
  bool ChunkedEnv() const {
    return config_.env_chunk_bytes > 0 && config_.peer_transfers;
  }

  /// Emits a span with explicit virtual timestamps as a child of `parent`
  /// and returns the new span's context (`parent` unchanged when tracing is
  /// off) — the simulator's analogue of the runtime's per-hop EmitLinked
  /// stitching, so both backends produce the same causal schema.
  telemetry::TraceContext TraceSpan(telemetry::TraceContext parent,
                                    telemetry::Phase phase,
                                    std::string_view category,
                                    std::string track, std::uint64_t id,
                                    double start_s, double end_s);
  /// Starts invocation `invocation`'s trace with its submit span — or,
  /// after a requeue, extends the existing trace so every attempt shares
  /// one trace_id.
  void TraceSubmit(std::size_t invocation, double popped_s);
  /// Adds the part of [wait_from, now] spent in `worker`'s env transfer and
  /// unpack windows to invocation `invocation`'s phase accumulators.
  void AccumEnvWait(std::size_t invocation, const SimWorker& worker,
                    double wait_from, double now);
  static int LevelNumber(core::ReuseLevel level);

  /// Interference multiplier from co-located invocations on this worker.
  double Contention(const SimWorker& worker, double beta) const;
  double ExecNoise(const WorkloadCosts& costs);
  void CpuPhase(const SimWorker& worker, double baseline_seconds,
                std::function<void()> done);
  void CompleteOnWorker(std::size_t worker_index, std::uint64_t generation,
                        std::size_t invocation, double started);
  /// Completion after the straggler hook; applies the injected
  /// task/invocation failure rate before recording the result.
  void FinishOnWorker(std::size_t worker_index, std::uint64_t generation,
                      std::size_t invocation, double started);
  /// The attempt was lost with its worker.  L1/L2 requeue it (at the back);
  /// at L3 the worker-death sweep has already put it back.
  void Requeue(std::size_t invocation);
  /// Virtual-time sampling chain for SimConfig::timeseries: one SampleAt
  /// per window, rescheduled while invocations remain (the chain must not
  /// outlive the workload or the event queue never drains).
  void ScheduleSampling();
  void ScheduleDeath(std::size_t worker_index);
  /// Immediate abrupt death + scheduled respawn; shared by churn and the
  /// fault plan's kill schedule.
  void KillWorkerNow(std::size_t worker_index);
  bool WorkerValid(std::size_t worker_index, std::uint64_t generation) const;

  SimConfig config_;
  std::vector<InvocationSpec> invocations_;
  Rng rng_;
  /// Same decision streams as the runtime's injector: per-worker keyed by
  /// 1-based endpoint id, so sim worker index w maps to endpoint w + 1.
  net::FaultInjector fault_;

  Simulation sim_;
  std::unique_ptr<FairShareResource> sharedfs_bw_;
  std::unique_ptr<IopsBucket> sharedfs_iops_;
  std::unique_ptr<FairShareResource> manager_uplink_;
  std::unique_ptr<SerialServer> manager_;

  std::vector<SimWorker> workers_;
  /// Task and library queues, instances, per-worker slots (1-based worker
  /// ids, matching runtime endpoints) and the placement decisions.
  core::ControlCore core_;
  /// Control-core name of each library index (zero-padded, so name order
  /// is index order).
  std::vector<std::string> library_names_;
  /// L3: the instance each dispatched invocation runs on.
  std::vector<core::LibraryInstanceId> instance_of_;
  bool done_ = false;  // all invocations completed: stop churn chains

  // Environment spanning-tree state.
  unsigned env_manager_seeds_inflight_ = 0;
  /// Free upload slots on replica holders; each entry carries the holder's
  /// predicted transfer-completion time (cut-through pacing).  Whole-blob
  /// slots are tagged with their release time.
  std::deque<double> env_serving_slots_;
  std::deque<std::size_t> env_transfer_queue_;  // workers awaiting a source

  std::uint64_t active_libraries_ = 0;
  std::vector<double> dispatch_times_;  // per invocation, when track_trace
  /// Per-invocation phase accumulators; reset on requeue so the trace row
  /// describes the final (successful) attempt.
  struct PhaseAccum {
    double transfer_s = 0;
    double unpack_s = 0;
    double setup_s = 0;
    double exec_s = 0;
  };
  std::vector<PhaseAccum> phases_;
  std::vector<double> queued_at_;  // per invocation, last (re)submit time
  /// Per-invocation causal context, advanced at every lifecycle span; one
  /// trace_id per invocation from submit through result, requeues included.
  std::vector<telemetry::TraceContext> trace_ctx_;
  /// Cached registry handles for SimConfig::timeseries (null when off).
  telemetry::Counter* ts_invocations_ = nullptr;
  telemetry::Histogram* ts_roundtrip_ = nullptr;
  telemetry::Gauge* ts_libraries_ = nullptr;
  SimResult result_;
};

}  // namespace vinelet::sim
