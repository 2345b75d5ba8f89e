#include "sim/engine.hpp"

#include <algorithm>
#include <cstdio>

namespace vinelet::sim {

std::string TraceToCsv(const std::vector<InvocationTrace>& trace) {
  std::string out =
      "invocation,worker,group,dispatched,started,finished,run_time,"
      "level,transfer_s,unpack_s,setup_s,exec_s\n";
  char line[240];
  for (const auto& t : trace) {
    std::snprintf(line, sizeof(line),
                  "%zu,%zu,%zu,%.6f,%.6f,%.6f,%.6f,%d,%.6f,%.6f,%.6f,%.6f\n",
                  t.invocation, t.worker, t.machine_group, t.dispatched,
                  t.started, t.finished, t.finished - t.started, t.level,
                  t.transfer_s, t.unpack_s, t.setup_s, t.exec_s);
    out += line;
  }
  return out;
}

VineSim::VineSim(SimConfig config, std::vector<InvocationSpec> invocations)
    : config_(config),
      invocations_(std::move(invocations)),
      rng_(config.seed),
      fault_(config.fault),
      core_(config.scheduler) {
  sharedfs_bw_ = std::make_unique<FairShareResource>(
      &sim_, config_.cluster.sharedfs_bandwidth_Bps,
      config_.cluster.sharedfs_per_stream_Bps);
  sharedfs_iops_ =
      std::make_unique<IopsBucket>(&sim_, config_.cluster.sharedfs_iops);
  manager_uplink_ = std::make_unique<FairShareResource>(
      &sim_, config_.cluster.manager_link_Bps);
  manager_ = std::make_unique<SerialServer>(&sim_);

  const auto nodes = SampleCluster(config_.cluster, rng_);
  workers_.reserve(nodes.size());
  const std::uint32_t cores_per_invocation =
      invocations_.empty() ? 2 : invocations_.front().costs->cores_per_invocation;
  const std::uint32_t slots =
      std::max(1u, config_.cluster.cores_per_worker / cores_per_invocation);
  // Every worker offers its slots to the control core: one per L1/L2 task,
  // or `k` per L3 library instance.
  for (const auto& node : nodes) {
    SimWorker worker;
    worker.node = node;
    worker.slots = slots;
    worker.disk = std::make_unique<FairShareResource>(
        &sim_, config_.cluster.local_disk_Bps);
    core_.AddWorker(ControlId(workers_.size()), core::Resources{slots, 0, 0});
    workers_.push_back(std::move(worker));
  }
  std::size_t libraries = 0;
  for (const InvocationSpec& spec : invocations_)
    libraries = std::max(libraries, spec.library + 1);
  const std::uint32_t k = std::max(1u, config_.library_slots);
  for (std::size_t lib = 0; lib < libraries; ++lib) {
    char name[32];
    std::snprintf(name, sizeof(name), "lib%06zu", lib);
    library_names_.emplace_back(name);
    core_.AddLibrary(library_names_.back(), core::Resources{k, 0, 0}, k);
  }
  if (config_.level == core::ReuseLevel::kL3)
    instance_of_.assign(invocations_.size(), 0);
}

int VineSim::LevelNumber(core::ReuseLevel level) {
  switch (level) {
    case core::ReuseLevel::kL1: return 1;
    case core::ReuseLevel::kL2: return 2;
    case core::ReuseLevel::kL3: return 3;
  }
  return 0;
}

telemetry::TraceContext VineSim::TraceSpan(telemetry::TraceContext parent,
                                           telemetry::Phase phase,
                                           std::string_view category,
                                           std::string track, std::uint64_t id,
                                           double start_s, double end_s) {
  if (config_.telemetry == nullptr || !config_.telemetry->tracer.enabled())
    return parent;
  return config_.telemetry->tracer.EmitLinked(parent, phase, category, track,
                                              id, start_s, end_s);
}

void VineSim::TraceSubmit(std::size_t invocation, double popped_s) {
  if (config_.telemetry == nullptr || !config_.telemetry->tracer.enabled())
    return;
  auto& tracer = config_.telemetry->tracer;
  if (!trace_ctx_[invocation].valid()) {
    trace_ctx_[invocation] = tracer.StartTrace(
        telemetry::Phase::kSubmit, "invocation", "manager", invocation,
        queued_at_[invocation], popped_s);
  } else {
    // Re-submission after a requeue: the retry's spans join the original
    // trace, so one trace_id tells the whole story including lost attempts.
    trace_ctx_[invocation] = tracer.EmitLinked(
        trace_ctx_[invocation], telemetry::Phase::kSubmit, "invocation",
        "manager", invocation, queued_at_[invocation], popped_s);
  }
}

void VineSim::AccumEnvWait(std::size_t invocation, const SimWorker& worker,
                           double wait_from, double now) {
  if (!config_.track_trace) return;
  const auto overlap = [&](double begin, double end) {
    return std::max(0.0, std::min(end, now) - std::max(begin, wait_from));
  };
  phases_[invocation].transfer_s +=
      overlap(worker.env_transfer_started_s, worker.env_transfer_done_s);
  phases_[invocation].unpack_s +=
      overlap(worker.env_transfer_done_s, worker.env_ready_s);
}

SimResult VineSim::Run() {
  for (std::size_t i = 0; i < invocations_.size(); ++i) {
    if (invocations_[i].arrival_s <= 0.0) {
      // Closed batch: queued before the clock starts, as always.
      Enqueue(i);
      continue;
    }
    sim_.At(invocations_[i].arrival_s, [this, i] {
      Enqueue(i);
      queued_at_[i] = sim_.Now();
      PumpDispatch();
    });
  }
  result_.run_times.reserve(invocations_.size());
  phases_.assign(invocations_.size(), PhaseAccum{});
  queued_at_.assign(invocations_.size(), 0.0);
  trace_ctx_.assign(invocations_.size(), telemetry::TraceContext{});
  if (config_.track_trace) {
    dispatch_times_.assign(invocations_.size(), 0.0);
    result_.trace.reserve(invocations_.size());
  }
  done_ = invocations_.empty();

  if (config_.worker_mean_lifetime_s > 0.0 && !done_) {
    for (std::size_t w = 0; w < workers_.size(); ++w) ScheduleDeath(w);
  }
  if (!workers_.empty() && !done_) {
    for (const net::KillEvent& kill : config_.fault.kills) {
      if (kill.worker == 0) continue;  // endpoint 0 is the manager
      const std::size_t index =
          static_cast<std::size_t>(kill.worker - 1) % workers_.size();
      sim_.At(kill.at_s, [this, index] {
        if (done_ || !workers_[index].alive) return;
        ++result_.injected_kills;
        KillWorkerNow(index);
      });
    }
  }

  if (config_.timeseries != nullptr && config_.telemetry != nullptr) {
    auto& reg = config_.telemetry->metrics;
    ts_invocations_ = &reg.GetCounter("manager.invocations_completed");
    ts_roundtrip_ = &reg.GetHistogram("manager.invocation_roundtrip_s");
    ts_libraries_ = &reg.GetGauge("manager.libraries_active");
    config_.timeseries->SampleAt(0.0);  // baseline at virtual t=0
    if (!done_) ScheduleSampling();
  }

  sim_.After(0.0, [this] { PumpDispatch(); });
  sim_.Run();

  // Close the tail window (SampleAt ignores a non-advancing clock, so a
  // sampling event that already fired past the makespan is harmless).
  if (config_.timeseries != nullptr && config_.telemetry != nullptr)
    config_.timeseries->SampleAt(result_.makespan);

  result_.manager_utilization =
      result_.makespan > 0 ? manager_->utilization(result_.makespan) : 0.0;
  const net::FaultStats fault_stats = fault_.stats();
  result_.injected_setup_failures = fault_stats.setup_failures;
  result_.injected_invocation_failures = fault_stats.invocation_failures;
  result_.injected_task_failures = fault_stats.task_failures;
  result_.injected_stragglers = fault_stats.stragglers;
  return result_;
}

void VineSim::Enqueue(std::size_t invocation) {
  const std::string& library = library_names_[invocations_[invocation].library];
  if (config_.level != core::ReuseLevel::kL3) {
    // One slot per task, placed from its function's key as the Manager
    // places a task (the library stands for the function it serves).
    core_.SubmitTask(invocation, core_.libraries().at(library).ring_key,
                     core::Resources{1, 0, 0});
    return;
  }
  // Affinity hit-rate, counted as the Manager counts it: did the call
  // arrive while some worker retained its library's context?
  if (core_.Submit(library, invocation))
    ++result_.affinity_hits;
  else
    ++result_.affinity_misses;
}

void VineSim::PumpDispatch() {
  for (auto decisions = core_.Pump(); !decisions.empty();
       decisions = core_.Pump())
    Carry(decisions);
}

void VineSim::DispatchTask(const core::ControlCore::Decision& place) {
  const std::size_t worker_index = place.worker - 1;
  const std::size_t invocation = place.task;
  const std::uint64_t generation = workers_[worker_index].generation;
  if (config_.track_trace) dispatch_times_[invocation] = sim_.Now();
  const double popped_s = sim_.Now();
  TraceSubmit(invocation, popped_s);
  const WorkloadCosts& costs = *invocations_[invocation].costs;
  const double dispatch_s = costs.ManagerFor(config_.level).dispatch_s;
  manager_->Enqueue(dispatch_s,
                    [this, worker_index, generation, invocation, popped_s] {
    trace_ctx_[invocation] =
        TraceSpan(trace_ctx_[invocation], telemetry::Phase::kDispatch,
                  "invocation", "manager", invocation, popped_s, sim_.Now());
    StartOnWorker(worker_index, generation, invocation);
  });
}

bool VineSim::WorkerValid(std::size_t worker_index,
                          std::uint64_t generation) const {
  const SimWorker& worker = workers_[worker_index];
  return worker.alive && worker.generation == generation;
}

void VineSim::StartOnWorker(std::size_t worker_index, std::uint64_t generation,
                            std::size_t invocation) {
  if (!WorkerValid(worker_index, generation)) {
    Requeue(invocation);
    return;
  }
  SimWorker& worker = workers_[worker_index];
  ++worker.active;
  const double started = sim_.Now();
  switch (config_.level) {
    case core::ReuseLevel::kL1:
      RunL1(worker, invocation, started);
      break;
    case core::ReuseLevel::kL2:
      RunL2(worker, invocation, started);
      break;
    case core::ReuseLevel::kL3:
      RunL3(worker, invocation, started);
      break;
  }
}

double VineSim::Contention(const SimWorker& worker, double beta) const {
  // Library instances mid-setup occupy their slots as much as running
  // invocations do, so a rollout's concurrent setups contend too.
  const std::size_t busy =
      worker.active + core_.PendingOn(ControlId(worker.node.index));
  if (worker.slots <= 1 || busy <= 1) return 1.0;
  const double co_located = static_cast<double>(busy - 1) /
                            static_cast<double>(worker.slots - 1);
  return 1.0 + beta * co_located;
}

double VineSim::ExecNoise(const WorkloadCosts& costs) {
  double noise = rng_.LogNormal(0.0, costs.exec_noise_sigma);
  if (costs.straggler_prob > 0.0 &&
      rng_.NextDouble() < costs.straggler_prob) {
    noise *= costs.straggler_factor;
  }
  return noise;
}

void VineSim::CpuPhase(const SimWorker& worker, double baseline_seconds,
                       std::function<void()> done) {
  sim_.After(baseline_seconds / worker.node.speed, std::move(done));
}

void VineSim::RunL1(SimWorker& worker, std::size_t invocation,
                    double started) {
  // Stateless task: metadata storm, shared-FS reads, then rebuild + exec —
  // every single time (paper L1: "all tasks are instructed to pull all data
  // and software dependencies from the shared file system").
  const std::size_t worker_index = worker.node.index;
  const std::uint64_t generation = worker.generation;
  const WorkloadCosts& costs = *invocations_[invocation].costs;
  const double exec_scale = invocations_[invocation].exec_scale;
  // Per-invocation FS volume varies (page-cache luck, input sizes): the
  // unit-mean lognormal multiplier produces L1's heavy tail.
  const double fs_bytes =
      costs.l1_fs_bytes *
      rng_.LogNormal(-costs.l1_fs_bytes_sigma * costs.l1_fs_bytes_sigma / 2,
                     costs.l1_fs_bytes_sigma);
  // The latency-bound portion (per-file round trips) is not bandwidth-
  // shareable; it simply elapses.
  const double fs_latency =
      costs.l1_fs_latency_s > 0
          ? costs.l1_fs_latency_s * rng_.LogNormal(-0.02, 0.2)
          : 0.0;
  sharedfs_iops_->Acquire(
      costs.l1_fs_ops,
      [this, worker_index, generation, invocation, started, &costs,
       exec_scale, fs_bytes, fs_latency] {
        sim_.After(fs_latency, [this, worker_index, generation, invocation,
                                started, &costs, exec_scale, fs_bytes] {
        sharedfs_bw_->Transfer(
            fs_bytes,
            [this, worker_index, generation, invocation, started, &costs,
             exec_scale] {
              if (!WorkerValid(worker_index, generation)) {
                Requeue(invocation);
                return;
              }
              SimWorker& w = workers_[worker_index];
              const double fetched_s = sim_.Now();
              trace_ctx_[invocation] = TraceSpan(
                  trace_ctx_[invocation], telemetry::Phase::kTransfer,
                  "invocation", "worker-" + std::to_string(worker_index),
                  invocation, started, fetched_s);
              if (config_.track_trace)
                phases_[invocation].transfer_s += fetched_s - started;
              // CPU phase: rebuild the in-memory context, then execute;
              // both stretched by co-located invocations.
              const double ctx_cpu =
                  (costs.deserialize_s + costs.context_rebuild_cpu_s) *
                  Contention(w, costs.contention_beta_context);
              const double exec_cpu =
                  costs.exec_cpu_s * exec_scale * ExecNoise(costs) *
                  Contention(w, costs.contention_beta_exec);
              const double ctx_d = ctx_cpu / w.node.speed;
              const double exec_d = exec_cpu / w.node.speed;
              CpuPhase(w, ctx_cpu + exec_cpu,
                       [this, worker_index, generation, invocation, started,
                        ctx_d, exec_d] {
                         if (WorkerValid(worker_index, generation)) {
                           const double end = sim_.Now();
                           const std::string track =
                               "worker-" + std::to_string(worker_index);
                           trace_ctx_[invocation] = TraceSpan(
                               trace_ctx_[invocation],
                               telemetry::Phase::kDeserialize, "invocation",
                               track, invocation, end - ctx_d - exec_d,
                               end - exec_d);
                           trace_ctx_[invocation] = TraceSpan(
                               trace_ctx_[invocation], telemetry::Phase::kExec,
                               "invocation", track, invocation, end - exec_d,
                               end);
                           if (config_.track_trace) {
                             phases_[invocation].setup_s += ctx_d;
                             phases_[invocation].exec_s += exec_d;
                           }
                         }
                         CompleteOnWorker(worker_index, generation, invocation,
                                          started);
                       });
            });
        });
      });
}

void VineSim::RunL2(SimWorker& worker, std::size_t invocation,
                    double started) {
  // Stateful-on-disk task: environment fetched/unpacked once per worker;
  // the invocation reads the context from local disk and rebuilds the
  // in-memory state.
  const std::size_t worker_index = worker.node.index;
  const std::uint64_t generation = worker.generation;
  const WorkloadCosts& costs = *invocations_[invocation].costs;
  const double exec_scale = invocations_[invocation].exec_scale;
  EnsureEnv(worker_index, generation, trace_ctx_[invocation],
            [this, worker_index, generation, invocation, started, &costs,
             exec_scale] {
    if (!WorkerValid(worker_index, generation)) {
      Requeue(invocation);
      return;
    }
    AccumEnvWait(invocation, workers_[worker_index], started, sim_.Now());
    const double disk_begin = sim_.Now();
    workers_[worker_index].disk->Transfer(
        costs.l2_local_bytes,
        [this, worker_index, generation, invocation, started, &costs,
         exec_scale, disk_begin] {
          if (!WorkerValid(worker_index, generation)) {
            Requeue(invocation);
            return;
          }
          SimWorker& w = workers_[worker_index];
          const double disk_end = sim_.Now();
          const std::string track = "worker-" + std::to_string(worker_index);
          trace_ctx_[invocation] =
              TraceSpan(trace_ctx_[invocation], telemetry::Phase::kUnpack,
                        "invocation", track, invocation, disk_begin, disk_end);
          if (config_.track_trace)
            phases_[invocation].unpack_s += disk_end - disk_begin;
          const double ctx_cpu =
              (costs.deserialize_s + costs.context_rebuild_cpu_s) *
              Contention(w, costs.contention_beta_context);
          const double exec_cpu = costs.exec_cpu_s * exec_scale *
                                  ExecNoise(costs) *
                                  Contention(w, costs.contention_beta_exec);
          const double ctx_d = ctx_cpu / w.node.speed;
          const double exec_d = exec_cpu / w.node.speed;
          CpuPhase(w, ctx_cpu + exec_cpu,
                   [this, worker_index, generation, invocation, started,
                    ctx_d, exec_d, track] {
                     if (WorkerValid(worker_index, generation)) {
                       const double end = sim_.Now();
                       trace_ctx_[invocation] = TraceSpan(
                           trace_ctx_[invocation],
                           telemetry::Phase::kDeserialize, "invocation",
                           track, invocation, end - ctx_d - exec_d,
                           end - exec_d);
                       trace_ctx_[invocation] = TraceSpan(
                           trace_ctx_[invocation], telemetry::Phase::kExec,
                           "invocation", track, invocation, end - exec_d,
                           end);
                       if (config_.track_trace) {
                         phases_[invocation].setup_s += ctx_d;
                         phases_[invocation].exec_s += exec_d;
                       }
                     }
                     CompleteOnWorker(worker_index, generation, invocation,
                                      started);
                   });
        });
  });
}

// ---------------------------------------------------------------------------
// Carrying out core::ControlCore's decisions — the control core the live
// Manager drives — in virtual time.  An eviction's removal is reported at
// once (the fluid model has no LibraryRemoved round trip), and the next pass
// offers the room to the library that evicted for it first.
// ---------------------------------------------------------------------------

void VineSim::Carry(const std::vector<core::ControlCore::Decision>& decisions) {
  using Kind = core::ControlCore::Decision::Kind;
  for (const core::ControlCore::Decision& decision : decisions) {
    switch (decision.kind) {
      case Kind::kTask:
        DispatchTask(decision);
        break;
      case Kind::kDispatch:
        DispatchBatch(decision);
        break;
      case Kind::kDeploy:
        ++result_.autoscale_deploys;
        if (decision.steal) ++result_.steals;
        StartDeploy(decision);
        break;
      case Kind::kEvict:
        core_.Remove(decision.instance);
        if (active_libraries_ > 0) --active_libraries_;
        ++result_.autoscale_evicts;
        break;
    }
  }
}

void VineSim::DispatchBatch(const core::ControlCore::Decision& dispatch) {
  const std::size_t worker_index = dispatch.worker - 1;
  const std::size_t take = dispatch.calls.size();
  ++result_.dispatch_batches;
  result_.dispatch_batched_invocations += take;
  result_.dispatch_max_batch =
      std::max<std::uint64_t>(result_.dispatch_max_batch, take);

  const double popped_s = sim_.Now();
  for (std::size_t invocation : dispatch.calls) {
    TraceSubmit(invocation, popped_s);
    instance_of_[invocation] = dispatch.instance;
  }
  // One manager service for the whole batch: the full per-message dispatch
  // cost once, then the calibrated marginal cost per extra batched item —
  // the protocol amortization RunInvocationBatchMsg buys.
  const WorkloadCosts& costs = *invocations_[dispatch.calls.front()].costs;
  const double dispatch_s = costs.ManagerFor(config_.level).dispatch_s;
  const double service_s =
      dispatch_s * (1.0 + kBatchItemCostFactor * static_cast<double>(take - 1));
  const std::uint64_t generation = workers_[worker_index].generation;
  manager_->Enqueue(service_s, [this, worker_index, generation,
                                batch = dispatch.calls, popped_s] {
    for (std::size_t invocation : batch) {
      trace_ctx_[invocation] =
          TraceSpan(trace_ctx_[invocation], telemetry::Phase::kDispatch,
                    "invocation", "manager", invocation, popped_s, sim_.Now());
      if (config_.track_trace) dispatch_times_[invocation] = sim_.Now();
      StartOnWorker(worker_index, generation, invocation);
    }
  });
}

void VineSim::RunL3(SimWorker& w, std::size_t invocation, double started) {
  const std::size_t worker_index = w.node.index;
  const std::uint64_t generation = w.generation;
  const WorkloadCosts& costs = *invocations_[invocation].costs;
  const double over_cpu = costs.invocation_overhead_s;
  const double exec_cpu = costs.exec_cpu_s *
                          invocations_[invocation].exec_scale *
                          ExecNoise(costs) *
                          Contention(w, costs.contention_beta_exec);
  const double over_d = over_cpu / w.node.speed;
  const double exec_d = exec_cpu / w.node.speed;
  CpuPhase(w, over_cpu + exec_cpu,
           [this, worker_index, generation, invocation, started, over_d,
            exec_d] {
             if (WorkerValid(worker_index, generation)) {
               const double end = sim_.Now();
               const std::string track =
                   "worker-" + std::to_string(worker_index);
               trace_ctx_[invocation] = TraceSpan(
                   trace_ctx_[invocation], telemetry::Phase::kDeserialize,
                   "invocation", track, invocation, end - over_d - exec_d,
                   end - exec_d);
               trace_ctx_[invocation] = TraceSpan(
                   trace_ctx_[invocation], telemetry::Phase::kExec,
                   "invocation", track, invocation, end - exec_d, end);
               if (config_.track_trace) {
                 phases_[invocation].setup_s += over_d;
                 phases_[invocation].exec_s += exec_d;
               }
             }
             CompleteOnWorker(worker_index, generation, invocation, started);
           });
}

void VineSim::StartDeploy(const core::ControlCore::Decision& deploy) {
  const std::size_t best = deploy.worker - 1;
  const core::LibraryInstanceId id = deploy.instance;
  const std::uint64_t generation = workers_[best].generation;
  // The deploy is its own causal trace, as the runtime's install is: a
  // zero-length dispatch span on the worker track opens it, the env
  // transfer and unpack chain off it when this deploy is the one that
  // starts them, and the context-setup span closes it.
  const std::string track = "worker-" + std::to_string(best);
  const telemetry::TraceContext trace =
      config_.telemetry == nullptr
          ? telemetry::TraceContext{}
          : config_.telemetry->tracer.StartTrace(
                telemetry::Phase::kDispatch, "library", track, best,
                sim_.Now(), sim_.Now());
  // Stage the (shared) environment, then pay the per-instance context
  // setup.  A worker death on the way has already dropped the instance.
  EnsureEnv(best, generation, trace,
            [this, best, generation, id, trace, track] {
    if (!WorkerValid(best, generation)) return;
    core_.Installing(id);
    SimWorker& w2 = workers_[best];
    const WorkloadCosts& costs = *invocations_.front().costs;
    const double setup_cpu = costs.context_setup_cpu_s *
                             Contention(w2, costs.contention_beta_context);
    const double setup_begin = sim_.Now();
    CpuPhase(w2, setup_cpu,
             [this, best, generation, id, trace, track, setup_begin] {
      if (!WorkerValid(best, generation)) return;
      if (config_.fault.worker.setup_failure_p > 0.0 &&
          fault_.InjectSetupFailure(best + 1)) {
        // Setup burned its time and failed: the runtime's worker reports
        // the removal, and queue pressure re-triggers the autoscaler.
        core_.Remove(id);
        PumpDispatch();
        return;
      }
      // Chain off the env unpack when this deploy staged the env itself.
      const SimWorker& w3 = workers_[best];
      TraceSpan(w3.env_trace.trace_id == trace.trace_id ? w3.env_trace : trace,
                telemetry::Phase::kContextSetup, "library", track, best,
                setup_begin, sim_.Now());
      core_.Ready(id);
      ++result_.libraries_deployed_total;
      ++active_libraries_;
      result_.libraries_peak_active =
          std::max(result_.libraries_peak_active, active_libraries_);
      PumpDispatch();
    });
  });
}

void VineSim::RequeueFront(std::size_t invocation) {
  ++result_.requeued_invocations;
  if (config_.track_trace) phases_[invocation] = PhaseAccum{};
  queued_at_[invocation] = sim_.Now();
  core_.Requeue(library_names_[invocations_[invocation].library], invocation);
}

// ---------------------------------------------------------------------------
// Environment distribution: manager seeds up to `env_fanout` workers, then
// every completed replica contributes `env_fanout` upload slots that serve
// queued workers — the spanning tree of §3.3 in fluid form.
// ---------------------------------------------------------------------------

void VineSim::EnsureEnv(std::size_t worker_index, std::uint64_t generation,
                        telemetry::TraceContext trace,
                        std::function<void()> ready) {
  if (!WorkerValid(worker_index, generation)) return;
  SimWorker& worker = workers_[worker_index];
  if (worker.env == SimWorker::Env::kReady) {
    sim_.After(0.0, std::move(ready));
    return;
  }
  worker.env_waiters.push_back(std::move(ready));
  if (worker.env == SimWorker::Env::kTransferring) return;
  worker.env = SimWorker::Env::kTransferring;
  worker.env_trace = trace;  // first requester parents the env spans
  worker.env_transfer_started_s = sim_.Now();
  RequestEnvTransfer(worker_index);
}

void VineSim::RequestEnvTransfer(std::size_t worker_index) {
  if (config_.peer_transfers && !env_serving_slots_.empty()) {
    const double source_done_s = env_serving_slots_.front();
    env_serving_slots_.pop_front();
    StartPeerEnvTransfer(worker_index, source_done_s);
    return;
  }
  if (env_manager_seeds_inflight_ < config_.env_fanout) {
    ++env_manager_seeds_inflight_;
    ++result_.env_manager_transfers;
    const std::uint64_t generation = workers_[worker_index].generation;
    const WorkloadCosts& costs = *invocations_.front().costs;
    if (ChunkedEnv()) {
      // Deterministic fair share of the manager uplink: a broadcast keeps
      // every seed slot busy, so each stream gets 1/env_fanout of the link
      // (matching the analytic planner's root-edge model).
      const double rate = config_.cluster.manager_link_Bps /
                          std::max(1u, config_.env_fanout);
      const double duration = costs.env_packed_bytes / rate;
      const double finish_s = sim_.Now() + duration;
      ScheduleEarlyServe(worker_index, generation, rate, finish_s);
      sim_.After(duration, [this, worker_index, generation] {
        --env_manager_seeds_inflight_;
        OnEnvTransferDone(worker_index, generation, /*from_manager=*/true);
      });
    } else {
      manager_uplink_->Transfer(
          costs.env_packed_bytes, [this, worker_index, generation] {
            --env_manager_seeds_inflight_;
            OnEnvTransferDone(worker_index, generation, /*from_manager=*/true);
          });
    }
    return;
  }
  env_transfer_queue_.push_back(worker_index);
}

void VineSim::StartPeerEnvTransfer(std::size_t worker_index,
                                   double source_done_s) {
  ++result_.env_peer_transfers;
  const std::uint64_t generation = workers_[worker_index].generation;
  const WorkloadCosts& costs = *invocations_.front().costs;
  const double rate = config_.cluster.worker_link_Bps;
  const double now = sim_.Now();
  double finish_s = now + costs.env_packed_bytes / rate;
  if (ChunkedEnv()) {
    // Cut-through hop: the last chunk cannot leave the source before the
    // source itself holds it, and needs one chunk-time to cross the link.
    finish_s = ChunkedHopFinishS(
        source_done_s, now, costs.env_packed_bytes / rate,
        static_cast<double>(config_.env_chunk_bytes) / rate);
    ScheduleEarlyServe(worker_index, generation, rate, finish_s);
  }
  sim_.After(finish_s - now, [this, worker_index, generation] {
    // The source's upload slot frees regardless of the destination's fate;
    // by now the source holds the full blob, so the slot is untagged.
    ReleaseEnvServingSlots(1, sim_.Now());
    OnEnvTransferDone(worker_index, generation,
                      /*from_manager=*/false);
  });
}

void VineSim::ScheduleEarlyServe(std::size_t worker_index,
                                 std::uint64_t generation, double rate_Bps,
                                 double finish_s) {
  const double chunk_s =
      static_cast<double>(config_.env_chunk_bytes) / rate_Bps;
  sim_.After(chunk_s, [this, worker_index, generation, finish_s] {
    // The replica died before its first chunk landed: no upload slots.
    if (!WorkerValid(worker_index, generation)) return;
    ReleaseEnvServingSlots(config_.env_fanout, finish_s);
  });
}

void VineSim::OnEnvTransferDone(std::size_t worker_index,
                                std::uint64_t generation, bool from_manager) {
  (void)from_manager;
  if (!WorkerValid(worker_index, generation)) {
    // Destination died mid-transfer: no new replica, but the tree keeps
    // draining through the slots released above.
    return;
  }
  // This worker's on-disk copy can now serve peers (before unpack — the
  // cached tarball, not the expanded tree, is what transfers).  In chunked
  // mode the slots were already released at first-chunk time (cut-through).
  if (!ChunkedEnv()) ReleaseEnvServingSlots(config_.env_fanout, sim_.Now());

  SimWorker& worker = workers_[worker_index];
  worker.env_transfer_done_s = sim_.Now();
  result_.env_last_transfer_done_s =
      std::max(result_.env_last_transfer_done_s, worker.env_transfer_done_s);
  const std::string track = "worker-" + std::to_string(worker_index);
  worker.env_trace = TraceSpan(worker.env_trace, telemetry::Phase::kTransfer,
                               "file", track, worker_index,
                               worker.env_transfer_started_s,
                               worker.env_transfer_done_s);
  const WorkloadCosts& costs = *invocations_.front().costs;
  const double unpack_begin = sim_.Now();
  CpuPhase(worker, costs.unpack_cpu_s,
           [this, worker_index, generation, unpack_begin, track] {
             if (!WorkerValid(worker_index, generation)) return;
             SimWorker& w = workers_[worker_index];
             w.env = SimWorker::Env::kReady;
             w.env_ready_s = sim_.Now();
             w.env_trace = TraceSpan(w.env_trace, telemetry::Phase::kUnpack,
                                     "file", track, worker_index,
                                     unpack_begin, w.env_ready_s);
             auto waiters = std::move(w.env_waiters);
             w.env_waiters.clear();
             for (auto& fn : waiters) fn();
           });
}

void VineSim::ReleaseEnvServingSlots(unsigned count, double source_done_s) {
  if (!config_.peer_transfers) {
    // Fig 3a mode: replicas never serve; the manager (sequentially, up to
    // its seed cap) is the only source.  Drain a snapshot of the queue so
    // re-queued entries are not popped again in this call.
    std::deque<std::size_t> queued;
    queued.swap(env_transfer_queue_);
    for (std::size_t next : queued) {
      if (workers_[next].alive &&
          workers_[next].env == SimWorker::Env::kTransferring) {
        RequestEnvTransfer(next);
      }
    }
    return;
  }
  for (unsigned i = 0; i < count; ++i) {
    // Serve queued workers first; skip entries that died while queued.
    bool served = false;
    while (!env_transfer_queue_.empty()) {
      const std::size_t next = env_transfer_queue_.front();
      env_transfer_queue_.pop_front();
      if (workers_[next].alive &&
          workers_[next].env == SimWorker::Env::kTransferring) {
        StartPeerEnvTransfer(next, source_done_s);
        served = true;
        break;
      }
    }
    if (!served) env_serving_slots_.push_back(source_done_s);
  }
}

// ---------------------------------------------------------------------------
// Completion, requeue, churn.
// ---------------------------------------------------------------------------

void VineSim::CompleteOnWorker(std::size_t worker_index,
                               std::uint64_t generation,
                               std::size_t invocation, double started) {
  if (!WorkerValid(worker_index, generation)) {
    Requeue(invocation);
    return;
  }
  if (config_.fault.worker.straggler_p > 0.0) {
    // Mirrors the runtime straggler hook: the slot stays occupied and the
    // extra time shows up as a slow execution (run_time includes it).
    const double slow = fault_.StragglerDelayS(worker_index + 1);
    if (slow > 0.0) {
      sim_.After(slow, [this, worker_index, generation, invocation, started] {
        FinishOnWorker(worker_index, generation, invocation, started);
      });
      return;
    }
  }
  FinishOnWorker(worker_index, generation, invocation, started);
}

void VineSim::FinishOnWorker(std::size_t worker_index, std::uint64_t generation,
                             std::size_t invocation, double started) {
  if (!WorkerValid(worker_index, generation)) {
    Requeue(invocation);
    return;
  }
  SimWorker& worker = workers_[worker_index];
  const bool l3 = config_.level == core::ReuseLevel::kL3;
  // The reply frees the call's instance slot, or the task's claim.
  if (l3)
    core_.Finish(instance_of_[invocation], invocation);
  else
    core_.ReleaseTask(ControlId(worker_index), invocation);
  if (worker.active > 0) --worker.active;
  const net::WorkerFaults& wf = config_.fault.worker;
  if (wf.invocation_failure_p > 0.0 || wf.task_failure_p > 0.0) {
    // L3 runs library invocations; L1/L2 run ordinary tasks — each draws
    // from its own per-worker hook stream, matching the runtime.
    const bool failed = l3 ? fault_.InjectInvocationFailure(worker_index + 1)
                           : fault_.InjectTaskFailure(worker_index + 1);
    if (failed && l3) {
      // As the Manager retries a failed reply: front of the queue.
      RequeueFront(invocation);
      PumpDispatch();
      return;
    }
    if (failed) {
      Requeue(invocation);
      return;
    }
  }
  const double run_time = sim_.Now() - started;
  if (config_.track_trace) {
    const PhaseAccum& p = phases_[invocation];
    result_.trace.push_back({invocation, worker_index, worker.node.group,
                             dispatch_times_[invocation], started, sim_.Now(),
                             LevelNumber(config_.level), p.transfer_s,
                             p.unpack_s, p.setup_s, p.exec_s});
  }

  const WorkloadCosts& costs = *invocations_[invocation].costs;
  const double retrieve_s = costs.ManagerFor(config_.level).retrieve_s;
  const double retrieve_queued_s = sim_.Now();
  manager_->Enqueue(retrieve_s, [this, run_time, invocation,
                                 retrieve_queued_s] {
    trace_ctx_[invocation] =
        TraceSpan(trace_ctx_[invocation], telemetry::Phase::kResult,
                  "invocation", "manager", invocation, retrieve_queued_s,
                  sim_.Now());
    ++result_.invocations_completed;
    result_.run_time.Add(run_time);
    result_.run_times.push_back(run_time);
    result_.makespan = sim_.Now();
    if (ts_invocations_ != nullptr) {
      // Publish the same completion metrics the live manager records, in
      // virtual time, so the windowed sampler sees one schema for both.
      ts_invocations_->Add();
      ts_roundtrip_->Observe(sim_.Now() - queued_at_[invocation]);
      ts_libraries_->Set(static_cast<double>(active_libraries_));
    }
    if (result_.invocations_completed == invocations_.size()) done_ = true;
    if (config_.track_series) {
      const auto completed =
          static_cast<double>(result_.invocations_completed);
      result_.active_libraries.Add(completed,
                                   static_cast<double>(active_libraries_));
      const double deployed = static_cast<double>(
          std::max<std::uint64_t>(1, result_.libraries_deployed_total));
      result_.avg_share_value.Add(completed, completed / deployed);
    }
    PumpDispatch();
  });
  PumpDispatch();  // the freed slot can take new work immediately
}

void VineSim::Requeue(std::size_t invocation) {
  if (config_.level == core::ReuseLevel::kL3) return;  // swept at death
  ++result_.requeued_invocations;
  if (config_.track_trace) phases_[invocation] = PhaseAccum{};
  queued_at_[invocation] = sim_.Now();
  Enqueue(invocation);
  PumpDispatch();
}

void VineSim::ScheduleSampling() {
  sim_.After(config_.timeseries->config().window_s, [this] {
    config_.timeseries->SampleAt(sim_.Now());
    if (!done_) ScheduleSampling();
  });
}

void VineSim::ScheduleDeath(std::size_t worker_index) {
  const double lifetime = rng_.Exponential(config_.worker_mean_lifetime_s);
  sim_.After(lifetime, [this, worker_index] { KillWorkerNow(worker_index); });
}

void VineSim::KillWorkerNow(std::size_t worker_index) {
  if (done_) return;  // workload finished: let the event queue drain
  SimWorker& worker = workers_[worker_index];
  if (!worker.alive) return;
  worker.alive = false;
  ++result_.worker_deaths;
  // The control core's death sweep, as the Manager's: task claims,
  // instances and their affinity go, and the instances' in-flight calls
  // return to the queue fronts.
  const core::ControlCore::WorkerLoss loss =
      core_.RemoveWorker(ControlId(worker_index));
  for (const core::ControlCore::Instance& instance : loss.instances) {
    if (instance.state == core::InstanceState::kReady ||
        instance.state == core::InstanceState::kDraining)
      --active_libraries_;
    for (std::size_t invocation : instance.running) RequeueFront(invocation);
  }
  worker.active = 0;
  worker.env = SimWorker::Env::kAbsent;
  // Fire pending env waiters: each observes the dead worker (an L2 task
  // requeues; an L3 deploy just ends).  In-flight L1/L2 phases requeue
  // lazily when they observe the generation change.
  auto waiters = std::move(worker.env_waiters);
  worker.env_waiters.clear();
  for (auto& fn : waiters) fn();
  if (!loss.instances.empty()) PumpDispatch();  // re-place requeued calls
  sim_.After(config_.worker_respawn_delay_s, [this, worker_index] {
    if (done_) return;
    SimWorker& w = workers_[worker_index];
    w.alive = true;
    ++w.generation;
    w.active = 0;
    core_.AddWorker(ControlId(worker_index), core::Resources{w.slots, 0, 0});
    // Churn chains re-arm on respawn; one-shot scheduled kills do not.
    if (config_.worker_mean_lifetime_s > 0.0) ScheduleDeath(worker_index);
    PumpDispatch();
  });
}

}  // namespace vinelet::sim
