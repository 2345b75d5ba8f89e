#include "core/manager.hpp"
//
// Manager lifecycle, the application-facing API, and the event loop live
// here.  The remaining member functions are grouped by concern into
// sibling translation units: manager_refs.cpp (pass-by-reference data
// plane), manager_scheduler.cpp (placement + dispatch),
// manager_broadcast.cpp (staging + chunked broadcast),
// manager_introspect.cpp (status + quiescence), and manager_recovery.cpp
// (fault handling).

#include <algorithm>
#include <chrono>

#include "common/log.hpp"

namespace vinelet::core {

using namespace std::chrono_literals;

Manager::Manager(std::shared_ptr<net::Transport> network, ManagerConfig config)
    : network_(std::move(network)),
      config_(config),
      registry_(config.registry != nullptr ? config.registry
                                           : &serde::FunctionRegistry::Global()),
      core_(config.scheduler),
      slo_monitor_(config.slo) {
  route_.unrunnable = [this](InvocationId id) { return FailUnrunnable(id); };
  route_.narrow = [this](InvocationId id,
                         std::vector<LibraryInstanceId>& candidates) {
    NarrowByRefs(id, candidates);
  };
  if (config.telemetry != nullptr) {
    telemetry_ = config.telemetry;
  } else {
    owned_telemetry_ = std::make_unique<telemetry::Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  auto& reg = telemetry_->metrics;
  m_.tasks_completed = &reg.GetCounter("manager.tasks_completed");
  m_.invocations_completed = &reg.GetCounter("manager.invocations_completed");
  m_.libraries_deployed = &reg.GetCounter("manager.libraries_deployed");
  m_.libraries_evicted = &reg.GetCounter("manager.libraries_evicted");
  m_.retries = &reg.GetCounter("manager.retries");
  m_.peer_transfers = &reg.GetCounter("manager.peer_transfers");
  m_.manager_transfers = &reg.GetCounter("manager.manager_transfers");
  m_.peer_transfer_bytes = &reg.GetCounter("manager.peer_transfer_bytes");
  m_.manager_transfer_bytes = &reg.GetCounter("manager.manager_transfer_bytes");
  m_.ref_results = &reg.GetCounter("manager.ref_results");
  m_.ref_result_bytes = &reg.GetCounter("manager.ref_result_bytes");
  m_.refs_dropped = &reg.GetCounter("manager.refs_dropped");
  m_.broadcast_resends = &reg.GetCounter("manager.broadcast_resends");
  m_.broadcast_resend_bytes = &reg.GetCounter("manager.broadcast_resend_bytes");
  m_.affinity_hits = &reg.GetCounter("manager.affinity_hits");
  m_.affinity_misses = &reg.GetCounter("manager.affinity_misses");
  m_.steals = &reg.GetCounter("manager.steals");
  m_.autoscale_deploys = &reg.GetCounter("manager.autoscale_deploys");
  m_.autoscale_evicts = &reg.GetCounter("manager.autoscale_evicts");
  m_.affinity_warm_instances = &reg.GetGauge("manager.affinity_warm_instances");
  m_.libraries_active = &reg.GetGauge("manager.libraries_active");
  m_.retained_context_bytes = &reg.GetGauge("manager.retained_context_bytes");
  m_.setup_transfer_s = &reg.GetGauge("manager.last_setup.transfer_s");
  m_.setup_worker_s = &reg.GetGauge("manager.last_setup.worker_s");
  m_.setup_deserialize_s = &reg.GetGauge("manager.last_setup.deserialize_s");
  m_.setup_context_s = &reg.GetGauge("manager.last_setup.context_s");
  m_.setup_exec_s = &reg.GetGauge("manager.last_setup.exec_s");
  m_.task_roundtrip_s = &reg.GetHistogram("manager.task_roundtrip_s");
  m_.invocation_roundtrip_s =
      &reg.GetHistogram("manager.invocation_roundtrip_s");
  m_.dispatch_batch_size = &reg.GetHistogram("manager.dispatch_batch_size");
}

Manager::~Manager() { Stop(); }

Status Manager::Start() {
  auto inbox = network_->Register(net::kManagerEndpoint);
  if (!inbox.ok()) return inbox.status();
  inbox_ = std::move(*inbox);
  // Learn of abrupt worker departures (no Goodbye) through the transport,
  // the way a real manager observes a TCP reset.
  network_->SetDisconnectListener([this](net::EndpointId id) {
    if (id == net::kManagerEndpoint) return;
    (void)Post(DisconnectCmd{id});
  });
  started_ = true;
  thread_ = std::thread([this] { Run(); });
  return Status::Ok();
}

void Manager::Stop() {
  if (!started_) return;
  started_ = false;
  network_->SetDisconnectListener(nullptr);
  commands_.Close();
  network_->Unregister(net::kManagerEndpoint);  // closes the inbox
  if (thread_.joinable()) thread_.join();

  // After the join, scheduler state is safe to touch: fail anything still
  // outstanding so application threads blocked on futures wake up.
  auto cancel = [this](FuturePtr& future) {
    if (future) future->Resolve(CancelledError("manager stopped"));
    FinishOne();
  };
  for (auto& [_, task] : tasks_) cancel(task.future);  // queued and placed
  tasks_.clear();
  for (auto& [_, call] : calls_) cancel(call.future);  // queued and running
  calls_.clear();
  for (auto& [_, broadcast] : broadcasts_) cancel(broadcast.future);
  broadcasts_.clear();
  if (status_query_.active) {
    status_query_.promise->set_value(CancelledError("manager stopped"));
    status_query_ = StatusQuery{};
  }
  for (auto& [_, fetch] : manager_fetches_)
    for (auto& waiter : fetch.waiters)
      waiter->set_value(CancelledError("manager stopped"));
  manager_fetches_.clear();
}

// ---------------------------------------------------------------------------
// Application-facing API (any thread).
// ---------------------------------------------------------------------------

storage::FileDecl Manager::DeclareBlob(const std::string& name, Blob payload,
                                       storage::FileKind kind, bool cache,
                                       bool peer_transfer, bool unpack) {
  storage::FileDecl decl;
  decl.name = name;
  decl.id = hash::ContentId::Of(payload);
  decl.size = payload.size();
  decl.kind = kind;
  decl.cache = cache;
  decl.peer_transfer = peer_transfer;
  decl.unpack = unpack;
  Status stored = manager_store_.PutTrusted(decl.id, std::move(payload));
  if (!stored.ok()) {
    VLOG_WARN("manager") << "declare failed for " << name << ": "
                         << stored.ToString();
  }
  return decl;
}

FuturePtr Manager::BroadcastFile(const storage::FileDecl& decl,
                                 std::uint64_t chunk_bytes,
                                 unsigned fanout_cap) {
  auto future = std::make_shared<OutcomeFuture>();
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    ++outstanding_;
  }
  if (!Post(BroadcastCmd{decl, chunk_bytes, fanout_cap, future, Now()})) {
    future->Resolve(UnavailableError("manager stopped"));
    FinishOne();
  }
  return future;
}

Result<LibrarySpec> Manager::CreateLibraryFromFunctions(
    const std::string& library_name,
    const std::vector<std::string>& function_names,
    const std::string& setup_name, const serde::Value& setup_args,
    const poncho::Analyzer* analyzer, const LibraryOptions& options) {
  if (library_name.empty())
    return InvalidArgumentError("library name empty");
  if (function_names.empty())
    return InvalidArgumentError("library needs at least one function");

  LibrarySpec spec;
  spec.name = library_name;
  spec.resources = options.resources;
  spec.slots = options.slots;
  spec.exec_mode = options.exec_mode;

  // Function code: serialize each function and bind the blob as a cached,
  // peer-transferable input file (paper §3.2, "Function code").
  for (const auto& fn_name : function_names) {
    auto def = registry_->FindFunction(fn_name);
    if (!def.ok()) return def.status();
    Blob blob = serde::SerializedFunction::Serialize(
        fn_name, serde::Value(), options.function_code_size);
    storage::FileDecl decl =
        DeclareBlob("fn:" + fn_name, std::move(blob),
                    storage::FileKind::kSerializedFunction,
                    /*cache=*/true, /*peer_transfer=*/true);
    spec.inputs.push_back(std::move(decl));
    spec.function_names.push_back(fn_name);
  }

  // Environment setup binding (paper §3.2, "Environment Setup").
  if (!setup_name.empty()) {
    auto setup = registry_->FindSetup(setup_name);
    if (!setup.ok()) return setup.status();
    spec.setup_name = setup_name;
  }
  spec.setup_args = setup_args.ToBlob();

  // Software dependencies: poncho scan -> resolved env -> packed tarball
  // bound as a cached input (paper §3.2, "Software dependencies").
  if (analyzer != nullptr) {
    auto env = analyzer->AnalyzeFunctions(*registry_, function_names);
    if (!env.ok()) return env.status();
    storage::FileDecl decl = DeclareBlob(
        "env:" + library_name, env->tarball, storage::FileKind::kEnvironment,
        /*cache=*/true, /*peer_transfer=*/true, /*unpack=*/true);
    spec.inputs.push_back(std::move(decl));
  }
  return spec;
}

void Manager::AddLibraryInput(LibrarySpec& spec,
                              storage::FileDecl decl) const {
  spec.inputs.push_back(std::move(decl));
}

Status Manager::InstallLibrary(LibrarySpec spec) {
  for (const auto& decl : spec.inputs) {
    if (!decl.cache)
      return InvalidArgumentError(
          "library inputs must be cacheable (context files are retained): " +
          decl.name);
    if (!manager_store_.Contains(decl.id))
      return FailedPreconditionError("library input not declared: " +
                                     decl.name);
  }
  if (!Post(InstallCmd{std::move(spec)}))
    return UnavailableError("manager stopped");
  return Status::Ok();
}

FuturePtr Manager::SubmitTask(const std::string& function_name,
                              const serde::Value& args,
                              std::vector<storage::FileDecl> inputs,
                              Resources resources,
                              bool ship_serialized_function,
                              std::size_t function_code_size) {
  auto future = std::make_shared<OutcomeFuture>();

  TaskSpec spec;
  spec.id = next_task_id_.fetch_add(1, std::memory_order_relaxed);
  spec.function_name = function_name;
  spec.args = args.ToBlob();
  spec.resources = resources;
  spec.inputs = std::move(inputs);

  if (ship_serialized_function) {
    // The shipped function blob follows the task's dominant caching mode:
    // cached alongside cached inputs (L2), inline otherwise (L1).
    const bool any_cached = std::any_of(
        spec.inputs.begin(), spec.inputs.end(),
        [](const storage::FileDecl& d) { return d.cache; });
    Blob blob = serde::SerializedFunction::Serialize(
        function_name, serde::Value(), function_code_size);
    storage::FileDecl decl = DeclareBlob(
        "fn:" + function_name, std::move(blob),
        storage::FileKind::kSerializedFunction, any_cached,
        /*peer_transfer=*/true);
    spec.inputs.push_back(std::move(decl));
  }

  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    ++outstanding_;
  }
  if (!Post(TaskCmd{std::move(spec), future, Now()})) {
    future->Resolve(UnavailableError("manager stopped"));
    FinishOne();
  }
  return future;
}

FuturePtr Manager::SubmitCall(const std::string& library_name,
                              const std::string& function_name,
                              const serde::Value& args) {
  auto future = std::make_shared<OutcomeFuture>();
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    ++outstanding_;
  }
  if (!Post(CallCmd{library_name, function_name, args.ToBlob(), future,
                    Now()})) {
    future->Resolve(UnavailableError("manager stopped"));
    FinishOne();
  }
  return future;
}

Result<Blob> Manager::FetchRef(const BlobRef& ref, double timeout_s) {
  if (!ref.valid()) return InvalidArgumentError("not a valid ref");
  auto promise = std::make_shared<std::promise<Result<Blob>>>();
  auto future = promise->get_future();
  if (!Post(FetchRefCmd{ref, std::move(promise)}))
    return UnavailableError("manager stopped");
  if (future.wait_for(std::chrono::duration<double>(timeout_s)) !=
      std::future_status::ready)
    return TimeoutError("ref fetch timed out");
  return future.get();
}

Status Manager::ReleaseRef(const BlobRef& ref) {
  if (!ref.valid()) return InvalidArgumentError("not a valid ref");
  if (!Post(ReleaseRefCmd{ref}))
    return UnavailableError("manager stopped");
  return Status::Ok();
}

Status Manager::WaitAll(double timeout_s) {
  std::unique_lock<std::mutex> lock(wait_mu_);
  auto done = [&] { return outstanding_ == 0; };
  if (timeout_s < 0) {
    wait_cv_.wait(lock, done);
    return Status::Ok();
  }
  if (!wait_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), done))
    return TimeoutError("WaitAll: " + std::to_string(outstanding_) +
                        " results still outstanding");
  return Status::Ok();
}

Status Manager::WaitForWorkers(std::size_t count, double timeout_s) {
  std::unique_lock<std::mutex> lock(wait_mu_);
  if (!wait_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                         [&] { return worker_count_ >= count; }))
    return TimeoutError("workers connected: " + std::to_string(worker_count_) +
                        "/" + std::to_string(count));
  return Status::Ok();
}

std::size_t Manager::connected_workers() const {
  std::lock_guard<std::mutex> lock(wait_mu_);
  return worker_count_;
}

Result<ClusterStatus> Manager::QueryStatus(double timeout_s) {
  auto promise = std::make_shared<std::promise<Result<ClusterStatus>>>();
  auto future = promise->get_future();
  if (!Post(StatusCmd{promise}))
    return UnavailableError("manager stopped");
  if (future.wait_for(std::chrono::duration<double>(timeout_s)) !=
      std::future_status::ready)
    return TimeoutError("status query timed out");
  return future.get();
}

Result<QuiescenceReport> Manager::CheckQuiescent(double timeout_s) {
  auto promise = std::make_shared<std::promise<QuiescenceReport>>();
  auto future = promise->get_future();
  if (!Post(QuiescenceCmd{std::move(promise)}))
    return UnavailableError("manager stopped");
  if (future.wait_for(std::chrono::duration<double>(timeout_s)) !=
      std::future_status::ready)
    return TimeoutError("quiescence check timed out");
  return future.get();
}

std::string QuiescenceReport::ToString() const {
  if (quiescent) return "quiescent";
  std::string out = "NOT quiescent:";
  for (const std::string& violation : violations) {
    out += "\n  - ";
    out += violation;
  }
  return out;
}

ManagerMetrics Manager::metrics() const {
  const telemetry::MetricsSnapshot snap = telemetry_->metrics.Snapshot();
  ManagerMetrics m;
  m.tasks_completed = snap.CounterValue("manager.tasks_completed");
  m.invocations_completed = snap.CounterValue("manager.invocations_completed");
  m.libraries_deployed = snap.CounterValue("manager.libraries_deployed");
  m.libraries_evicted = snap.CounterValue("manager.libraries_evicted");
  m.retries = snap.CounterValue("manager.retries");
  m.peer_transfers = snap.CounterValue("manager.peer_transfers");
  m.manager_transfers = snap.CounterValue("manager.manager_transfers");
  m.ref_results = snap.CounterValue("manager.ref_results");
  m.ref_result_bytes = snap.CounterValue("manager.ref_result_bytes");
  m.refs_dropped = snap.CounterValue("manager.refs_dropped");
  m.affinity_hits = snap.CounterValue("manager.affinity_hits");
  m.affinity_misses = snap.CounterValue("manager.affinity_misses");
  m.steals = snap.CounterValue("manager.steals");
  m.autoscale_deploys = snap.CounterValue("manager.autoscale_deploys");
  m.autoscale_evicts = snap.CounterValue("manager.autoscale_evicts");
  m.libraries_active = static_cast<std::uint64_t>(
      snap.GaugeValue("manager.libraries_active"));
  m.retained_context_bytes = static_cast<std::uint64_t>(
      snap.GaugeValue("manager.retained_context_bytes"));
  m.last_library_setup.transfer_s =
      snap.GaugeValue("manager.last_setup.transfer_s");
  m.last_library_setup.worker_s = snap.GaugeValue("manager.last_setup.worker_s");
  m.last_library_setup.deserialize_s =
      snap.GaugeValue("manager.last_setup.deserialize_s");
  m.last_library_setup.context_s =
      snap.GaugeValue("manager.last_setup.context_s");
  m.last_library_setup.exec_s = snap.GaugeValue("manager.last_setup.exec_s");
  return m;
}

bool Manager::Post(Command command) {
  if (!commands_.Send(std::move(command))) return false;
  // A parked manager waits on its inbox, not on commands_: wake it with an
  // empty frame, once per park.  The manager thread never finds itself
  // parked, so its own posts (future callbacks) send no wake-up.
  if (parked_.load() && parked_.exchange(false))
    (void)inbox_->TrySend(net::Frame{});
  return true;
}

void Manager::FinishOne() {
  std::lock_guard<std::mutex> lock(wait_mu_);
  if (outstanding_ > 0) --outstanding_;
  wait_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Manager thread: event loop.
// ---------------------------------------------------------------------------

void Manager::Run() {
  bool inbox_open = true;
  bool commands_open = true;
  while (inbox_open || commands_open) {
    bool activity = false;
    if (inbox_open) {
      // Park, then look at commands_ once more: a command posted before
      // the flag went up sent no wake-up, so it must not wait out the poll.
      parked_.store(true);
      auto frame =
          commands_.size() == 0 ? inbox_->RecvFor(1ms) : inbox_->TryRecv();
      parked_.store(false);
      if (frame) {
        HandleFrame(*frame);
        activity = true;
        // Drain whatever else is queued before rescheduling.
        while (auto more = inbox_->TryRecv()) HandleFrame(*more);
      } else if (inbox_->closed() && inbox_->size() == 0) {
        inbox_open = false;
      }
    }
    if (commands_open) {
      while (auto cmd = commands_.TryRecv()) {
        HandleCommand(std::move(*cmd));
        activity = true;
      }
      if (commands_.closed() && commands_.size() == 0) commands_open = false;
    }
    if (!pending_dead_.empty()) {
      ProcessDeadWorkers();
      activity = true;  // deaths requeue work; reschedule now
    }
    if (!broadcasts_.empty()) ProbeBroadcasts();
    if (activity) TrySchedule();
    if (!inbox_open && commands_open) {
      // Inbox gone (Stop in progress): drain remaining commands and exit.
      commands_open = false;
    }
  }
}

void Manager::HandleFrame(const net::Frame& frame) {
  if (frame.payload.empty()) return;  // a Post wake-up
  auto message = DecodeFrame(frame);
  if (!message.ok()) {
    VLOG_ERROR("manager") << "malformed frame from " << frame.sender << ": "
                          << message.status().ToString();
    return;
  }
  const WorkerId sender = frame.sender;
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, HelloMsg>) {
          core_.AddWorker(sender, msg.resources);
          telemetry_->flight.Record("worker-join", "", 0, sender);
          {
            std::lock_guard<std::mutex> lock(wait_mu_);
            worker_count_ = core_.workers().size();
            wait_cv_.notify_all();
          }
          VLOG_INFO("manager") << "worker " << sender << " joined "
                               << msg.resources.ToString();
        } else if constexpr (std::is_same_v<T, GoodbyeMsg>) {
          pending_dead_.insert(sender);
        } else if constexpr (std::is_same_v<T, FileReadyMsg>) {
          CompleteTransfer(sender, msg.content_id, true, "");
          CompleteBroadcastReady(sender, msg.content_id);
          // A consumer that fetched a ref payload peer-to-peer announces the
          // verified copy the same way; recording it lets later consumers
          // fetch from this worker and survives the original owner's death.
          if (refs_.contains(msg.content_id))
            replicas_.AddReplica(msg.content_id, sender);
        } else if constexpr (std::is_same_v<T, FileFailedMsg>) {
          CompleteTransfer(sender, msg.content_id, false, msg.error);
          FailBroadcastWorker(sender, msg.content_id, msg.error);
        } else if constexpr (std::is_same_v<T, TaskDoneMsg>) {
          auto it = tasks_.find(msg.id);
          // Stale: a retried task's old result, or one for a requeued task.
          if (it == tasks_.end() || it->second.worker == 0) return;
          Task& task = it->second;
          core_.ReleaseTask(task.worker, msg.id);
          if (!msg.ok && ++task.attempts < config_.max_attempts) {
            m_.retries->Add();
            telemetry_->flight.Record("task-retry", msg.error,
                                      task.trace.trace_id, msg.id,
                                      task.worker);
            QueueTask(task);
            return;
          }
          if (!msg.ok) {
            task.future->Resolve(InternalError(msg.error));
          } else if (auto value = serde::Value::FromBlob(msg.result);
                     !value.ok()) {
            task.future->Resolve(value.status());
          } else {
            TimingBreakdown timing = msg.timing;
            timing.transfer_s += task.transfer_wait_s;
            const double received_s = Now();
            // Metrics and spans land before the future resolves so a
            // waiter's snapshot always includes its own completion.
            m_.tasks_completed->Add();
            m_.task_roundtrip_s->Observe(Now() - task.submitted_s);
            // Chain the result span off the worker's execution span (the
            // reply carries it back) so the round trip closes the trace.
            telemetry_->tracer.EmitLinked(
                msg.trace.valid() ? msg.trace : task.trace,
                telemetry::Phase::kResult, "task", "manager", msg.id,
                received_s, Now());
            task.future->Resolve(
                Outcome{std::move(*value), timing, task.worker});
          }
          FinishOne();
          tasks_.erase(it);
        } else if constexpr (std::is_same_v<T, LibraryReadyMsg>) {
          // A redelivered (duplicated) Ready must not re-count the deploy or
          // re-add the gauge shares: the core takes it only from kInstalling.
          if (!core_.Ready(msg.instance_id)) return;
          const ControlCore::Instance& instance =
              *core_.FindInstance(msg.instance_id);
          InstanceInfo& info = instance_info_.at(msg.instance_id);
          info.context_memory = msg.context_memory_bytes;
          info.ready_s = Now();
          m_.libraries_deployed->Add();
          m_.libraries_active->Add(1);
          m_.retained_context_bytes->Add(
              static_cast<double>(msg.context_memory_bytes));
          m_.setup_transfer_s->Set(msg.timing.transfer_s);
          m_.setup_worker_s->Set(msg.timing.worker_s);
          m_.setup_deserialize_s->Set(msg.timing.deserialize_s);
          m_.setup_context_s->Set(msg.timing.context_s);
          m_.setup_exec_s->Set(msg.timing.exec_s);
          VLOG_INFO("manager") << "library " << instance.library << "#"
                               << msg.instance_id << " ready on worker "
                               << instance.worker;
          // The turn's TrySchedule fills the new instance's slots.
        } else if constexpr (std::is_same_v<T, LibraryRemovedMsg>) {
          // The core drops the instance (and, if it was still kReady, its
          // affinity entry) and releases its claim; a duplicate is a no-op.
          auto removed = core_.Remove(msg.instance_id);
          if (!removed) return;
          auto info = instance_info_.extract(msg.instance_id);
          if (removed->state == InstanceState::kReady ||
              removed->state == InstanceState::kDraining)
            m_.libraries_active->Set(
                std::max(0.0, m_.libraries_active->Value() - 1));
          if (!info.empty())
            m_.retained_context_bytes->Set(std::max(
                0.0, m_.retained_context_bytes->Value() -
                         static_cast<double>(info.mapped().context_memory)));
          for (InvocationId id : removed->running) RequeueCall(calls_.at(id));
        } else if constexpr (std::is_same_v<T, InvocationDoneMsg>) {
          // The reply names its instance; a call that is no longer running
          // there (a late duplicate, or a reply from before a requeue) is
          // stale and ignored.
          const ControlCore::Instance* instance =
              core_.Finish(msg.instance_id, msg.id);
          if (instance == nullptr) return;
          const WorkerId worker = instance->worker;
          auto call_it = calls_.find(msg.id);
          PendingCall& call = call_it->second;
          // Feed the rolling latency window behind straggler detection.
          auto& window = latency_s_[worker];
          window.push_back(Now() - call.queued_s);
          if (window.size() > kLatencyWindow) window.pop_front();
          // Resolves the call.  As with tasks, metrics and spans land before
          // the future resolves so a waiter's snapshot includes its own
          // completion.
          auto resolve = [&](Result<Outcome> outcome) {
            slo_monitor_.Record(call.library, Now() - call.submitted_s,
                                outcome.ok(), Now());
            if (outcome.ok()) {
              const double received_s = Now();
              m_.invocations_completed->Add();
              m_.invocation_roundtrip_s->Observe(Now() - call.submitted_s);
              telemetry_->tracer.EmitLinked(
                  msg.trace.valid() ? msg.trace : call.trace,
                  telemetry::Phase::kResult, "invocation", "manager", msg.id,
                  received_s, Now());
            }
            SettleCallRefs(call);
            call.future->Resolve(std::move(outcome));
            FinishOne();
            calls_.erase(call_it);
          };
          if (msg.ok && msg.ref.valid()) {
            // Pass-by-reference result: the payload stayed in the producing
            // worker's store.  Record placement and resolve the future with
            // the wrapped ref — the bytes never transit the manager.
            refs_[msg.ref.id].size = msg.ref.size;
            replicas_.AddReplica(msg.ref.id, worker);
            m_.ref_results->Add();
            m_.ref_result_bytes->Add(msg.ref.size);
            resolve(Outcome{WrapRef(msg.ref), msg.timing, worker});
          } else if (msg.ok) {
            auto value = serde::Value::FromBlob(msg.result);
            if (value.ok())
              resolve(Outcome{std::move(*value), msg.timing, worker});
            else
              resolve(value.status());
          } else if (++call.attempts < config_.max_attempts) {
            m_.retries->Add();
            telemetry_->flight.Record("call-retry", msg.error,
                                      call.trace.trace_id, msg.id, worker);
            RequeueCall(call);
          } else {
            resolve(InternalError(msg.error));
          }
          // No refill here: the slot stays free until the end of this
          // turn, when TrySchedule's Pump refills every slot the turn's
          // replies freed, up to kMaxBatch calls per dispatch frame.
        } else if constexpr (std::is_same_v<T, BlobDataMsg>) {
          HandleManagerBlobData(std::move(msg));  // FetchRef materialization
        } else if constexpr (std::is_same_v<T, StatusReplyMsg>) {
          HandleStatusReply(sender, msg);
        } else {
          VLOG_WARN("manager") << "unexpected message from " << sender;
        }
      },
      std::move(*message));
}

void Manager::HandleCommand(Command command) {
  std::visit(
      [&](auto&& cmd) {
        using T = std::decay_t<decltype(cmd)>;
        if constexpr (std::is_same_v<T, InstallCmd>) {
          const std::string name = cmd.spec.name;
          core_.AddLibrary(name, cmd.spec.resources, cmd.spec.slots);
          libraries_[name] = std::move(cmd.spec);
        } else if constexpr (std::is_same_v<T, TaskCmd>) {
          Task task;
          // Split declared inputs: cached ones are staged per-worker, the
          // rest ride inline with every execution (L1 behaviour).
          for (auto& decl : cmd.spec.inputs) {
            if (decl.cache) {
              task.spec.inputs.push_back(std::move(decl));
            } else {
              task.inline_decls.push_back(std::move(decl));
            }
          }
          cmd.spec.inputs = std::move(task.spec.inputs);
          task.spec = std::move(cmd.spec);
          task.future = std::move(cmd.future);
          task.submitted_s = cmd.submitted_s;
          const TaskId id = task.spec.id;
          Task& queued = tasks_.emplace(id, std::move(task)).first->second;
          QueueTask(queued);
          // Root of the task's causal trace; every downstream span (staging,
          // worker execution, result) chains off this context.
          queued.trace = telemetry_->tracer.StartTrace(
              telemetry::Phase::kSubmit, "task", "manager", id,
              cmd.submitted_s, queued.queued_s);
        } else if constexpr (std::is_same_v<T, CallCmd>) {
          if (!libraries_.contains(cmd.library)) {
            cmd.future->Resolve(
                NotFoundError("library not installed: " + cmd.library));
            FinishOne();
            return;
          }
          PendingCall call;
          call.id = next_invocation_id_.fetch_add(1, std::memory_order_relaxed);
          call.library = cmd.library;
          call.function = std::move(cmd.function);
          call.args = std::move(cmd.args);
          call.future = std::move(cmd.future);
          call.submitted_s = cmd.submitted_s;
          call.queued_s = Now();
          call.trace = telemetry_->tracer.StartTrace(
              telemetry::Phase::kSubmit, "invocation", "manager", call.id,
              cmd.submitted_s, call.queued_s);
          RegisterRefArgs(call);
          const InvocationId id = call.id;
          calls_.emplace(id, std::move(call));
          // Affinity hit-rate: did this invocation arrive while some worker
          // already retained its library's context?
          if (core_.Submit(cmd.library, id))
            m_.affinity_hits->Add();
          else
            m_.affinity_misses->Add();
        } else if constexpr (std::is_same_v<T, BroadcastCmd>) {
          StartBroadcast(std::move(cmd));
        } else if constexpr (std::is_same_v<T, DisconnectCmd>) {
          pending_dead_.insert(cmd.worker);
        } else if constexpr (std::is_same_v<T, StatusCmd>) {
          StartStatusQuery(std::move(cmd));
        } else if constexpr (std::is_same_v<T, QuiescenceCmd>) {
          RunQuiescenceCheck(std::move(cmd));
        } else if constexpr (std::is_same_v<T, FetchRefCmd>) {
          HandleFetchRefCmd(std::move(cmd));
        } else if constexpr (std::is_same_v<T, ReleaseRefCmd>) {
          auto it = refs_.find(cmd.ref.id);
          if (it == refs_.end()) return;
          it->second.released = true;
          MaybeDropRef(cmd.ref.id);
        }
      },
      std::move(command));
}

Status Manager::SendTo(WorkerId worker, const Message& message,
                       std::optional<std::uint32_t> attachment_crc) {
  WireFrame wire = EncodeFrame(message, attachment_crc);
  Status status =
      network_->Send(net::kManagerEndpoint, worker, std::move(wire.payload),
                     std::move(wire.attachment));
  if (!status.ok()) pending_dead_.insert(worker);
  return status;
}

}  // namespace vinelet::core
