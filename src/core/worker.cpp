#include "core/worker.hpp"

#include <chrono>

#include "common/buffer_pool.hpp"
#include "common/log.hpp"

namespace vinelet::core {

Worker::Worker(std::shared_ptr<net::Transport> network, WorkerConfig config)
    : network_(std::move(network)),
      config_(config),
      registry_(config.registry != nullptr ? config.registry
                                           : &serde::FunctionRegistry::Global()),
      store_(config.cache_capacity_bytes) {
  if (config.telemetry != nullptr) {
    telemetry_ = config.telemetry;
  } else {
    owned_telemetry_ = std::make_unique<telemetry::Telemetry>();
    telemetry_ = owned_telemetry_.get();
  }
  track_ = "worker-" + std::to_string(config_.id);
  auto& reg = telemetry_->metrics;
  m_.files_received = &reg.GetCounter("worker.files_received");
  m_.bytes_received = &reg.GetCounter("worker.bytes_received");
  m_.peer_pushes = &reg.GetCounter("worker.peer_pushes");
  m_.peer_push_bytes = &reg.GetCounter("worker.peer_push_bytes");
  m_.chunks_received = &reg.GetCounter("worker.chunks_received");
  m_.chunks_relayed = &reg.GetCounter("worker.chunks_relayed");
  m_.unpacks = &reg.GetCounter("worker.unpacks");
  m_.unpack_s = &reg.GetHistogram("worker.unpack_s");
  m_.task_exec_s = &reg.GetHistogram("worker.task_exec_s");
  // All workers' caches aggregate under one prefix.
  store_.BindMetrics(&reg, "worker.cache");
}

Worker::~Worker() { Stop(); }

Status Worker::Start() {
  auto inbox = network_->Register(config_.id);
  if (!inbox.ok()) return inbox.status();
  inbox_ = std::move(*inbox);
  thread_ = std::thread([this] { Run(); });
  SendToManager(HelloMsg{config_.resources});
  return Status::Ok();
}

void Worker::Stop() {
  if (stopping_.exchange(true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (network_->Connected(config_.id)) {
    SendToManager(GoodbyeMsg{});
    network_->Unregister(config_.id);
  }
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(libraries_mu_);
    for (auto& [_, library] : libraries_) library->Stop();
    libraries_.clear();
    dead_libraries_.clear();  // threads already exited after setup failure
  }
  ReapTaskThreads(/*all=*/true);
}

void Worker::Kill() {
  if (stopping_.exchange(true)) return;
  // Post-mortem journal: the flight recorder's recent events are the only
  // record of what this worker was doing when it "crashed".
  telemetry_->flight.Record("kill", "", 0, config_.id,
                            tasks_executed_.load(std::memory_order_relaxed));
  telemetry_->flight.DumpOnEnv("worker-" + std::to_string(config_.id) +
                               "-kill");
  network_->Unregister(config_.id);  // vanish: inbox closes, no Goodbye
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(libraries_mu_);
    for (auto& [_, library] : libraries_) library->Stop();
    libraries_.clear();
    dead_libraries_.clear();
  }
  ReapTaskThreads(/*all=*/true);
}

std::size_t Worker::libraries_hosted() const {
  std::lock_guard<std::mutex> lock(libraries_mu_);
  return libraries_.size();
}

void Worker::Run() {
  while (auto frame = inbox_->Recv()) {
    Handle(std::move(*frame));
  }
}

void Worker::Handle(net::Frame frame) {
  const net::EndpointId sender = frame.sender;
  Stopwatch decode_watch(clock_);
  auto message = DecodeFrame(frame);
  const double decode_s = decode_watch.Elapsed();
  if (!message.ok()) {
    VLOG_ERROR("worker") << config_.id
                         << " dropped malformed frame: "
                         << message.status().ToString();
    return;
  }
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, PutFileMsg>) {
          HandlePutFile(std::move(msg));
        } else if constexpr (std::is_same_v<T, PushFileMsg>) {
          HandlePushFile(msg);
        } else if constexpr (std::is_same_v<T, PutChunkMsg>) {
          HandlePutChunk(std::move(msg), FrameAttachmentCrc(frame));
        } else if constexpr (std::is_same_v<T, ExecuteTaskMsg>) {
          HandleExecuteTask(std::move(msg), decode_s);
        } else if constexpr (std::is_same_v<T, InstallLibraryMsg>) {
          HandleInstallLibrary(std::move(msg), decode_s);
        } else if constexpr (std::is_same_v<T, RemoveLibraryMsg>) {
          HandleRemoveLibrary(msg);
        } else if constexpr (std::is_same_v<T, RunInvocationMsg>) {
          HandleRunInvocation(std::move(msg));
        } else if constexpr (std::is_same_v<T, RunInvocationBatchMsg>) {
          HandleRunInvocationBatch(std::move(msg));
        } else if constexpr (std::is_same_v<T, FetchBlobMsg>) {
          HandleFetchBlob(msg, sender);
        } else if constexpr (std::is_same_v<T, BlobDataMsg>) {
          HandleBlobData(std::move(msg));
        } else if constexpr (std::is_same_v<T, DropBlobMsg>) {
          HandleDropBlob(msg);
        } else if constexpr (std::is_same_v<T, CancelFetchMsg>) {
          HandleCancelFetch(msg);
        } else if constexpr (std::is_same_v<T, StatusRequestMsg>) {
          HandleStatusRequest();
        } else if constexpr (std::is_same_v<T, ShutdownMsg>) {
          // Manager-initiated teardown; Run() exits when the inbox closes.
          network_->Unregister(config_.id);
        } else {
          VLOG_WARN("worker") << config_.id << " ignoring unexpected message";
        }
      },
      std::move(*message));
}

void Worker::HandlePutFile(PutFileMsg msg) {
  const double arrived_s = telemetry_->tracer.Now();
  // Verified store: a corrupted transfer surfaces as FileFailed, and the
  // manager re-sources the file (possibly from a different peer).
  Status status = store_.Put(msg.decl.id, std::move(msg.payload));
  // Admission span (hash-verify + cache insert), chained off the sender's
  // transfer context.
  telemetry_->tracer.EmitLinked(msg.trace, telemetry::Phase::kTransfer,
                                "admission", track_, msg.decl.id.Prefix64(),
                                arrived_s, telemetry_->tracer.Now());
  if (status.ok()) {
    m_.files_received->Add();
    m_.bytes_received->Add(msg.decl.size);
    SendToManager(FileReadyMsg{msg.decl.id, msg.decl.size});
  } else {
    telemetry_->flight.Record("file-failed", status.ToString(),
                              msg.trace.trace_id, msg.decl.id.Prefix64(),
                              config_.id);
    telemetry_->flight.DumpOnEnv("worker-" + std::to_string(config_.id) +
                                 "-filefail");
    SendToManager(FileFailedMsg{msg.decl.id, status.ToString()});
  }
}

void Worker::HandlePushFile(const PushFileMsg& msg) {
  // Spanning-tree hop: we hold the file; push it to a peer worker.
  auto blob = store_.Get(msg.decl.id);
  if (!blob.ok()) {
    SendToManager(FileFailedMsg{msg.decl.id,
                                "push source lost file: " + msg.decl.name});
    return;
  }
  // The blob travels as the frame attachment: this hop moves a refcounted
  // pointer, not the payload bytes.  The trace rides along so the
  // destination's admission span still links to the original transfer.
  WireFrame wire = EncodeFrame(PutFileMsg{msg.decl, std::move(*blob),
                                          msg.trace});
  Status sent = network_->Send(config_.id, msg.dest, std::move(wire.payload),
                               std::move(wire.attachment));
  if (sent.ok()) {
    m_.peer_pushes->Add();
    m_.peer_push_bytes->Add(msg.decl.size);
  }
  if (!sent.ok()) {
    // Destination died; the manager will notice via its own sends.
    VLOG_WARN("worker") << config_.id << " peer push failed: "
                        << sent.ToString();
  }
}

void Worker::HandlePutChunk(PutChunkMsg msg, std::uint32_t chunk_crc) {
  const double arrived_s = telemetry_->tracer.Now();
  // This hop's receive span is pre-allocated so forwarded chunks can name it
  // as their parent before it is emitted — the trace mirrors the relay tree.
  const bool traced = telemetry_->tracer.enabled() && msg.trace.valid();
  telemetry::TraceContext hop_ctx = msg.trace;
  if (traced)
    hop_ctx = {msg.trace.trace_id, telemetry::SpanTracer::AllocateId()};
  // Cut-through relay first, before any local work: forward chunk k to every
  // subtree the route assigns us.  The chunk Blob is a refcounted view, so
  // each relay hop forwards the exact bytes it received — no copy (asserted
  // by Blob::SharesPayloadWith in tests).
  for (const ChunkRoute& child : msg.children) {
    PutChunkMsg forward;
    forward.decl = msg.decl;
    forward.chunk_index = msg.chunk_index;
    forward.num_chunks = msg.num_chunks;
    forward.chunk_bytes = msg.chunk_bytes;
    forward.children = child.children;
    forward.chunk = msg.chunk;  // shared payload
    forward.trace = hop_ctx;
    WireFrame wire = EncodeFrame(forward, chunk_crc);
    Status sent = network_->Send(config_.id, child.dest,
                                 std::move(wire.payload),
                                 std::move(wire.attachment));
    if (sent.ok()) {
      m_.chunks_relayed->Add();
      m_.peer_push_bytes->Add(msg.chunk.size());
    } else {
      // The subtree root died mid-relay; the manager observes the death via
      // its own sends and re-sends the subtree's chunks directly.
      VLOG_WARN("worker") << config_.id << " chunk relay to " << child.dest
                          << " failed: " << sent.ToString();
    }
  }
  // Emit the receive span before any dedupe early-return: children already
  // reference its id, and an orphan parent would break trace validation.
  if (telemetry_->tracer.enabled()) {
    telemetry::SpanRecord record;
    record.name =
        std::string(telemetry::PhaseName(telemetry::Phase::kTransfer));
    record.category = "chunk";
    record.track = track_;
    record.id = msg.decl.id.Prefix64() ^ msg.chunk_index;
    record.start_s = arrived_s;
    record.end_s = telemetry_->tracer.Now();
    if (traced) {
      record.trace_id = msg.trace.trace_id;
      record.span_id = hop_ctx.parent_span_id;
      record.parent_span_id = msg.trace.parent_span_id;
    }
    telemetry_->tracer.Emit(std::move(record));
  }

  if (msg.num_chunks == 0 || msg.chunk_index >= msg.num_chunks) return;
  if (store_.Contains(msg.decl.id)) {
    // Already assembled (duplicate delivery after a re-plan): just confirm.
    if (msg.chunk_index == 0)
      SendToManager(FileReadyMsg{msg.decl.id, msg.decl.size});
    return;
  }

  ChunkAssembly& assembly = assemblies_[msg.decl.id];
  if (assembly.chunks.empty()) {
    assembly.decl = msg.decl;
    assembly.chunks.resize(static_cast<std::size_t>(msg.num_chunks));
    assembly.have.assign(static_cast<std::size_t>(msg.num_chunks), false);
  }
  if (assembly.chunks.size() != msg.num_chunks) return;  // inconsistent rerun
  const auto index = static_cast<std::size_t>(msg.chunk_index);
  if (assembly.have[index]) return;  // duplicate chunk: idempotent
  assembly.have[index] = true;
  assembly.chunks[index] = std::move(msg.chunk);
  ++assembly.received;
  m_.chunks_received->Add();

  if (assembly.received < assembly.chunks.size()) return;

  // Reassemble and admit through the verifying Put: a corrupted chunk makes
  // the content hash mismatch and surfaces as FileFailed, never as a bad
  // cache entry.
  ByteBuffer buffer;
  buffer.Reserve(static_cast<std::size_t>(assembly.decl.size));
  for (const Blob& chunk : assembly.chunks) buffer.Append(chunk.span());
  const storage::FileDecl decl = assembly.decl;
  assemblies_.erase(msg.decl.id);
  Status status = store_.Put(decl.id, Blob(std::move(buffer)));
  if (status.ok()) {
    m_.files_received->Add();
    m_.bytes_received->Add(decl.size);
    SendToManager(FileReadyMsg{decl.id, decl.size});
  } else {
    telemetry_->flight.Record("assembly-failed", status.ToString(),
                              msg.trace.trace_id, decl.id.Prefix64(),
                              config_.id);
    telemetry_->flight.DumpOnEnv("worker-" + std::to_string(config_.id) +
                                 "-filefail");
    SendToManager(FileFailedMsg{decl.id, status.ToString()});
  }
}

void Worker::HandleExecuteTask(ExecuteTaskMsg msg, double decode_s) {
  std::lock_guard<std::mutex> lock(tasks_mu_);
  task_threads_.emplace_back([this, msg = std::move(msg), decode_s]() mutable {
    TaskDoneMsg done = ExecuteTask(msg.task, decode_s, msg.trace);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    SendToManager(done);
  });
  // Opportunistically reap finished threads so the vector stays small.
  if (task_threads_.size() > 2 * config_.resources.cores) {
    // Cannot join here while holding tasks_mu_ against Stop(); reaping is
    // deferred to ReapTaskThreads which runs at shutdown.  The vector is
    // bounded by the manager's resource accounting in practice.
  }
}

TaskDoneMsg Worker::ExecuteTask(const TaskSpec& task, double decode_s,
                                telemetry::TraceContext trace) {
  TaskDoneMsg done;
  done.id = task.id;
  done.trace = trace;  // ride the trace back even if this side is untraced
  done.timing.transfer_s = decode_s;
  const double phase_start_s = telemetry_->tracer.Now();

  // --- Worker overhead: verify + stage inline files, stage cached inputs,
  // unpack environments (cached unpack for L2, throwaway unpack for L1).
  Stopwatch watch(clock_);
  std::map<std::string, Blob> files;
  std::vector<std::shared_ptr<const poncho::UnpackedDir>> held;

  auto fail = [&](const Status& status) {
    done.ok = false;
    done.error = status.ToString();
    return done;
  };

  for (const auto& [decl, payload] : task.inline_files) {
    if (hash::ContentId::Of(payload) != decl.id)
      return fail(DataLossError("inline file corrupt: " + decl.name));
    if (decl.unpack) {
      auto dir = poncho::Packer::Unpack(payload);  // L1: expand every time
      if (!dir.ok()) return fail(dir.status());
      auto dir_ptr = std::make_shared<const poncho::UnpackedDir>(
          std::move(*dir));
      for (const auto& [name, content] : dir_ptr->files)
        files.emplace(name, content);
      held.push_back(std::move(dir_ptr));
    } else if (decl.kind != storage::FileKind::kSerializedFunction) {
      files.emplace(decl.name, payload);
    }
  }
  for (const auto& decl : task.inputs) {
    auto blob = store_.Get(decl.id);
    if (!blob.ok())
      return fail(FailedPreconditionError("task input not staged: " +
                                          decl.name));
    if (decl.unpack) {
      bool unpacked_now = false;
      Stopwatch unpack_watch(clock_);
      auto dir = unpacked_.GetOrUnpack(decl.id, *blob, &unpacked_now);
      if (!dir.ok()) return fail(dir.status());
      if (unpacked_now) {
        m_.unpacks->Add();
        m_.unpack_s->Observe(unpack_watch.Elapsed());
      }
      for (const auto& [name, content] : (*dir)->files)
        files.emplace(name, content);
      held.push_back(*dir);
    } else if (decl.kind != storage::FileKind::kSerializedFunction) {
      files.emplace(decl.name, std::move(*blob));
    }
  }
  done.timing.worker_s = watch.Elapsed();

  // --- Context overhead: reconstruct the function object and arguments.
  watch.Restart();
  serde::Value closure;
  serde::FunctionDef def;
  bool found = false;
  const std::string fn_file = "fn:" + task.function_name;
  // Serialized function may arrive inline (L1) or via the cache (L2).
  for (const auto& [decl, payload] : task.inline_files) {
    if (decl.kind == storage::FileKind::kSerializedFunction &&
        decl.name == fn_file) {
      auto parsed = serde::SerializedFunction::Deserialize(payload);
      if (!parsed.ok()) return fail(parsed.status());
      auto looked_up = registry_->FindFunction(parsed->name());
      if (!looked_up.ok()) return fail(looked_up.status());
      def = std::move(*looked_up);
      closure = parsed->closure();
      found = true;
      break;
    }
  }
  if (!found) {
    for (const auto& decl : task.inputs) {
      if (decl.kind == storage::FileKind::kSerializedFunction &&
          decl.name == fn_file) {
        auto blob = store_.Get(decl.id);
        if (!blob.ok()) return fail(blob.status());
        auto parsed = serde::SerializedFunction::Deserialize(*blob);
        if (!parsed.ok()) return fail(parsed.status());
        auto looked_up = registry_->FindFunction(parsed->name());
        if (!looked_up.ok()) return fail(looked_up.status());
        def = std::move(*looked_up);
        closure = parsed->closure();
        found = true;
        break;
      }
    }
  }
  if (!found) {
    auto looked_up = registry_->FindFunction(task.function_name);
    if (!looked_up.ok()) return fail(looked_up.status());
    def = std::move(*looked_up);
  }
  auto args = serde::Value::FromBlob(task.args);
  if (!args.ok()) return fail(args.status());
  // Function/argument decoding is deserialize cost, not context setup —
  // stateless tasks build no retained context at all.
  done.timing.deserialize_s = watch.Elapsed();

  if (config_.fault && config_.fault->InjectTaskFailure(config_.id))
    return fail(InternalError("injected task failure"));

  // --- Execute.  No retained context: env.context is null, so the function
  // rebuilds any in-memory state it needs (the repeated work L3 removes).
  // An injected straggler delay is charged to exec_s: from the outside it
  // is simply a slow execution.
  watch.Restart();
  if (config_.fault) {
    const double slow_s = config_.fault->StragglerDelayS(config_.id);
    if (slow_s > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(slow_s));
  }
  serde::InvocationEnv env;
  env.files = &files;
  env.closure = &closure;
  env.sandbox = "sandbox-task-" + std::to_string(task.id);
  auto result = def.fn(*args, env);
  done.timing.exec_s = watch.Elapsed();

  if (!result.ok()) return fail(result.status());
  done.ok = true;
  done.result = result->ToBlob();
  m_.task_exec_s->Observe(done.timing.exec_s);
  if (telemetry_->tracer.enabled()) {
    // unpack -> deserialize -> exec chain off the manager's staging span;
    // the exec context rides back on TaskDone for the result span.
    auto& tracer = telemetry_->tracer;
    double t = phase_start_s;
    telemetry::TraceContext ctx = trace;
    ctx = tracer.EmitLinked(ctx, telemetry::Phase::kUnpack, "task", track_,
                            task.id, t, t + done.timing.worker_s);
    t += done.timing.worker_s;
    ctx = tracer.EmitLinked(ctx, telemetry::Phase::kDeserialize, "task",
                            track_, task.id, t, t + done.timing.deserialize_s);
    t += done.timing.deserialize_s;
    ctx = tracer.EmitLinked(ctx, telemetry::Phase::kExec, "task", track_,
                            task.id, t, t + done.timing.exec_s);
    done.trace = ctx;
  }
  return done;
}

void Worker::HandleInstallLibrary(InstallLibraryMsg msg, double decode_s) {
  LibraryRuntime::Callbacks callbacks;
  const double transfer_s = decode_s;
  callbacks.on_ready = [this, transfer_s](
                           LibraryInstanceId id,
                           Result<LibraryRuntime::SetupReport> report) {
    if (report.ok()) {
      TimingBreakdown t = report->timing;
      t.transfer_s = transfer_s;
      SendToManager(LibraryReadyMsg{id, t, report->context_memory_bytes});
    } else {
      // Report the failed install as an immediate removal so the manager
      // releases the resources and can retry elsewhere.  This callback runs
      // on the library's own thread: park the instance instead of
      // destroying it (destruction joins the thread we are on).
      VLOG_WARN("worker") << config_.id << " library setup failed: "
                          << report.status().ToString();
      {
        std::lock_guard<std::mutex> lock(libraries_mu_);
        auto it = libraries_.find(id);
        if (it != libraries_.end()) {
          dead_libraries_.push_back(std::move(it->second));
          libraries_.erase(it);
        }
      }
      SendToManager(LibraryRemovedMsg{id});
    }
  };
  callbacks.on_done = [this](InvocationDoneMsg done) {
    relayed_result_bytes_.fetch_add(done.result.size(),
                                    std::memory_order_relaxed);
    SendToManager(std::move(done));
  };

  auto library = std::make_unique<LibraryRuntime>(
      std::move(msg.spec), msg.instance_id, &store_, &unpacked_, registry_,
      std::move(callbacks), telemetry_);
  library->SetSetupTrace(msg.trace);
  if (config_.fault) library->SetFaultInjector(config_.fault, config_.id);
  library->SetRefPolicy(config_.ref_results_min_bytes, config_.id,
                        &refs_held_);
  LibraryRuntime* raw = library.get();
  {
    std::lock_guard<std::mutex> lock(libraries_mu_);
    libraries_.emplace(msg.instance_id, std::move(library));
  }
  raw->Start();
}

void Worker::HandleRemoveLibrary(const RemoveLibraryMsg& msg) {
  std::unique_ptr<LibraryRuntime> library;
  {
    std::lock_guard<std::mutex> lock(libraries_mu_);
    auto it = libraries_.find(msg.instance_id);
    if (it == libraries_.end()) return;
    library = std::move(it->second);
    libraries_.erase(it);
  }
  library->Stop();  // waits for in-flight invocations (manager only removes
                    // empty libraries, so this returns promptly)
  SendToManager(LibraryRemovedMsg{msg.instance_id});
}

void Worker::HandleRunInvocation(RunInvocationMsg msg) {
  for (const RefArg& ra : msg.ref_args) {
    if (!store_.Contains(ra.ref.id)) {
      ParkAndFetch(std::move(msg));
      return;
    }
  }
  SubmitReady(std::move(msg));
}

void Worker::HandleRunInvocationBatch(RunInvocationBatchMsg msg) {
  // One instance lookup and one lock round for the whole batch; every item
  // still completes (or fails) individually, so the manager's per-invocation
  // futures and causal traces behave exactly as with single dispatch.
  // Items whose ref arguments are not yet local peel off into the park/fetch
  // path and submit individually once their payloads land.
  std::vector<RunInvocationMsg> ready;
  ready.reserve(msg.items.size());
  for (auto& item : msg.items) {
    bool resident = true;
    for (const RefArg& ra : item.ref_args) {
      if (!store_.Contains(ra.ref.id)) {
        resident = false;
        break;
      }
    }
    if (resident)
      ready.push_back(std::move(item));
    else
      ParkAndFetch(std::move(item));
  }
  if (ready.empty()) return;
  std::vector<InvocationId> failed;
  {
    std::lock_guard<std::mutex> lock(libraries_mu_);
    auto it = libraries_.find(msg.instance_id);
    if (it == libraries_.end()) {
      failed.reserve(ready.size());
      for (const auto& item : ready) failed.push_back(item.id);
    } else {
      // SubmitBatch consumes items from the front; anything past the
      // accepted count never reached the library thread (it was closing)
      // and must be failed individually so each future still resolves.
      const std::size_t accepted = it->second->SubmitBatch(ready);
      for (std::size_t i = accepted; i < ready.size(); ++i)
        failed.push_back(ready[i].id);
    }
  }
  for (InvocationId id : failed) {
    InvocationDoneMsg done;
    done.id = id;
    done.instance_id = msg.instance_id;
    done.ok = false;
    done.error = "library instance not present on worker";
    SendToManager(std::move(done));
  }
}

void Worker::SubmitReady(RunInvocationMsg msg) {
  const InvocationId id = msg.id;
  const LibraryInstanceId instance_id = msg.instance_id;
  bool submitted = false;
  {
    std::lock_guard<std::mutex> lock(libraries_mu_);
    auto it = libraries_.find(msg.instance_id);
    if (it != libraries_.end()) submitted = it->second->Submit(std::move(msg));
  }
  if (!submitted) {
    InvocationDoneMsg done;
    done.id = id;
    done.instance_id = instance_id;
    done.ok = false;
    done.error = "library instance not present on worker";
    SendToManager(std::move(done));
  }
}

void Worker::ParkAndFetch(RunInvocationMsg msg) {
  const InvocationId id = msg.id;
  if (parked_.contains(id)) return;  // duplicate delivery; fetches in flight
  std::vector<RefArg> missing;
  for (const RefArg& ra : msg.ref_args)
    if (!store_.Contains(ra.ref.id)) missing.push_back(ra);
  ParkedInvocation& slot = parked_[id];
  slot.msg = std::move(msg);
  slot.awaiting = missing.size();
  for (const RefArg& ra : missing) {
    // A failed StartFetch fails (and erases) this parked invocation; the
    // remaining fetches would only feed a corpse.
    if (!parked_.contains(id)) break;
    StartFetch(ra, id);
  }
}

void Worker::StartFetch(const RefArg& ref_arg, InvocationId waiter) {
  auto [it, inserted] = fetches_.try_emplace(ref_arg.ref.id);
  it->second.waiters.push_back(waiter);
  if (!inserted) return;  // fetch already in flight; ride along
  it->second.source = ref_arg.source;
  if (ref_arg.source == 0 || ref_arg.source == config_.id) {
    // The manager believed the payload was already here (or gave no source)
    // but the store disagrees — likely evicted.  Fail fast so the manager
    // re-dispatches with a live replica.
    FailFetch(ref_arg.ref.id, "ref payload not in local store");
    return;
  }
  FetchBlobMsg fetch;
  fetch.id = ref_arg.ref.id;
  fetch.tag = next_fetch_tag_++;
  WireFrame wire = EncodeFrame(fetch);
  Status sent = network_->Send(config_.id, ref_arg.source,
                               std::move(wire.payload),
                               std::move(wire.attachment));
  if (!sent.ok())
    FailFetch(ref_arg.ref.id,
              "fetch source unreachable: " + sent.ToString());
}

void Worker::FailFetch(const hash::ContentId& id, const std::string& error) {
  auto it = fetches_.find(id);
  if (it == fetches_.end()) return;
  std::vector<InvocationId> waiters = std::move(it->second.waiters);
  fetches_.erase(it);
  for (InvocationId waiter : waiters) {
    auto parked_it = parked_.find(waiter);
    if (parked_it == parked_.end()) continue;
    InvocationDoneMsg done;
    done.id = waiter;
    done.instance_id = parked_it->second.msg.instance_id;
    parked_.erase(parked_it);
    done.ok = false;
    done.error = "ref fetch failed: " + error;
    SendToManager(std::move(done));
  }
}

void Worker::HandleFetchBlob(const FetchBlobMsg& msg,
                             net::EndpointId requester) {
  BlobDataMsg reply;
  reply.id = msg.id;
  reply.tag = msg.tag;
  reply.trace = msg.trace;
  auto blob = store_.Get(msg.id);
  if (blob.ok()) {
    reply.ok = true;
    reply.payload = std::move(*blob);
  } else {
    reply.error = "replica miss on worker " + std::to_string(config_.id);
  }
  const std::uint64_t served = reply.payload.size();
  // The payload rides as the frame attachment: serving a ref forwards the
  // store's refcounted bytes, same zero-copy path as the chunk relay.
  WireFrame wire = EncodeFrame(reply);
  Status sent = network_->Send(config_.id, requester, std::move(wire.payload),
                               std::move(wire.attachment));
  if (sent.ok() && served > 0)
    p2p_serve_bytes_.fetch_add(served, std::memory_order_relaxed);
}

void Worker::HandleBlobData(BlobDataMsg msg) {
  if (!msg.ok) {
    FailFetch(msg.id, msg.error.empty() ? "replica miss" : msg.error);
    return;
  }
  // A ref id names its producer, not its bytes, so there is nothing to
  // hash: the frame CRC already vouched for the payload (a damaged one
  // arrives as a miss and took the FailFetch path above).
  const std::uint64_t size = msg.payload.size();
  Status stored = store_.PutTrusted(msg.id, std::move(msg.payload));
  if (!stored.ok()) {
    FailFetch(msg.id, stored.ToString());
    return;
  }
  auto it = fetches_.find(msg.id);
  if (it == fetches_.end()) return;  // late duplicate; nothing waiting
  (void)store_.Pin(msg.id);
  refs_held_.fetch_add(1, std::memory_order_relaxed);
  p2p_fetch_bytes_.fetch_add(size, std::memory_order_relaxed);
  // Announce the new replica so the manager's table learns this worker now
  // holds the payload (future consumers can fetch from here, and the
  // eventual DropBlob reaches every copy).
  SendToManager(FileReadyMsg{msg.id, size});
  std::vector<InvocationId> waiters = std::move(it->second.waiters);
  fetches_.erase(it);
  for (InvocationId waiter : waiters) {
    auto parked_it = parked_.find(waiter);
    if (parked_it == parked_.end()) continue;
    if (--parked_it->second.awaiting > 0) continue;
    RunInvocationMsg run = std::move(parked_it->second.msg);
    parked_.erase(parked_it);
    SubmitReady(std::move(run));
  }
}

void Worker::HandleDropBlob(const DropBlobMsg& msg) {
  if (!store_.Contains(msg.id)) return;
  (void)store_.Unpin(msg.id);
  (void)store_.Remove(msg.id);
  // Guarded decrement: a DropBlob can race a crashed producer's re-execution
  // and arrive for a payload this worker never counted.
  std::uint64_t held = refs_held_.load(std::memory_order_relaxed);
  while (held > 0 && !refs_held_.compare_exchange_weak(
                         held, held - 1, std::memory_order_relaxed)) {
  }
}

void Worker::HandleCancelFetch(const CancelFetchMsg& msg) {
  // Idempotent: if the fetch already completed there is nothing parked.
  FailFetch(msg.id, "fetch cancelled: replica owner died");
}

void Worker::HandleStatusRequest() {
  // Snapshot assembled on the inbox thread, which owns assemblies_; the
  // cache and library maps have their own locks.
  StatusReplyMsg reply;
  reply.inbox_depth = inbox_->size();
  reply.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  for (const auto& entry : store_.List())
    reply.cache.push_back({entry.id, entry.bytes});
  for (const auto& [id, assembly] : assemblies_)
    reply.assemblies.push_back(
        {id, assembly.received, assembly.chunks.size()});
  {
    std::lock_guard<std::mutex> lock(libraries_mu_);
    for (const auto& [id, library] : libraries_)
      reply.libraries.push_back({id, library->spec().name,
                                 library->invocations_served(),
                                 library->queued()});
  }
  reply.refs_held = refs_held_.load(std::memory_order_relaxed);
  reply.p2p_fetch_bytes = p2p_fetch_bytes_.load(std::memory_order_relaxed);
  reply.p2p_serve_bytes = p2p_serve_bytes_.load(std::memory_order_relaxed);
  reply.relayed_result_bytes =
      relayed_result_bytes_.load(std::memory_order_relaxed);
  // The encode buffer pool is process-wide; every worker reports the same
  // high-water mark, which status consumers display as the node arena HWM.
  reply.arena_hwm_bytes = BufferPool::GetStats().hwm_bytes;
  SendToManager(reply);
}

void Worker::SendToManager(const Message& message) {
  WireFrame wire = EncodeFrame(message);
  Status status =
      network_->Send(config_.id, net::kManagerEndpoint,
                     std::move(wire.payload), std::move(wire.attachment));
  if (!status.ok()) {
    VLOG_DEBUG("worker") << config_.id
                         << " send to manager failed: " << status.ToString();
  }
}

void Worker::ReapTaskThreads(bool all) {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    if (all) to_join.swap(task_threads_);
  }
  for (auto& t : to_join)
    if (t.joinable()) t.join();
}

}  // namespace vinelet::core
