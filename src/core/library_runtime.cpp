#include "core/library_runtime.hpp"

#include <atomic>
#include <chrono>
#include <random>
#include <utility>

#include "common/log.hpp"
#include "core/scheduler.hpp"

namespace vinelet::core {
namespace {

/// Ref ids are assigned, not hashed: (producer worker, incarnation of this
/// process, process-wide sequence).  The sequence alone keeps the ids of
/// workers sharing a process apart; the incarnation keeps a restarted
/// worker that reuses its endpoint id from reissuing an old id.
hash::ContentId NextRefId(WorkerId producer) {
  static const std::uint64_t incarnation = [] {
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device() ^
           static_cast<std::uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count());
  }();
  static std::atomic<std::uint64_t> sequence{0};
  return hash::ContentId::Assigned(
      producer, incarnation,
      sequence.fetch_add(1, std::memory_order_relaxed) + 1);
}

}  // namespace

LibraryRuntime::LibraryRuntime(LibrarySpec spec, LibraryInstanceId instance_id,
                               storage::ContentStore* store,
                               UnpackRegistry* unpacked,
                               const serde::FunctionRegistry* registry,
                               Callbacks callbacks,
                               telemetry::Telemetry* telemetry,
                               std::string track)
    : spec_(std::move(spec)),
      instance_id_(instance_id),
      store_(store),
      unpacked_(unpacked),
      registry_(registry),
      callbacks_(std::move(callbacks)),
      telemetry_(telemetry),
      track_(std::move(track)) {
  if (telemetry_ != nullptr) {
    if (track_.empty())
      track_ = "library-" + spec_.name + "#" + std::to_string(instance_id_);
    auto& reg = telemetry_->metrics;
    invocations_metric_ = &reg.GetCounter("library.invocations");
    invoke_exec_s_ = &reg.GetHistogram("library.invocation_exec_s");
    setup_s_ = &reg.GetHistogram("library.setup_s");
  }
}

LibraryRuntime::~LibraryRuntime() { Stop(); }

void LibraryRuntime::Start() {
  thread_ = std::thread([this] { Run(); });
}

void LibraryRuntime::Stop() {
  requests_.Close();
  if (thread_.joinable()) thread_.join();
  ReapForked(/*all=*/true);
}

bool LibraryRuntime::Submit(RunInvocationMsg msg) {
  return requests_.Send(std::move(msg));
}

std::size_t LibraryRuntime::SubmitBatch(std::vector<RunInvocationMsg>& msgs) {
  return requests_.SendAll(msgs.begin(), msgs.end());
}

void LibraryRuntime::Run() {
  // Phase 1: one-time context setup — the whole point of the library.
  TimingBreakdown setup_timing;
  Status status = Setup(setup_timing);
  if (!status.ok()) {
    VLOG_WARN("library") << spec_.name << "#" << instance_id_
                         << " setup failed: " << status.ToString();
    callbacks_.on_ready(instance_id_, Result<SetupReport>(status));
    return;
  }
  SetupReport report;
  report.timing = setup_timing;
  report.context_memory_bytes = context_ ? context_->MemoryBytes() : 0;
  callbacks_.on_ready(instance_id_, report);

  // Phase 2: serve invocations until told to stop.
  if (spec_.exec_mode == ExecMode::kDirect)
    ServeDirect();
  else
    ServeForked();
}

void LibraryRuntime::ServeDirect() {
  // A result is held only while the next call is already queued and known
  // to be cheap, so a burst of cheap calls goes back in one send while a
  // slow call never delays the results before it.  The thread never blocks
  // in Recv holding a result.
  std::vector<InvocationDoneMsg> held;
  double oldest_s = 0;
  std::optional<RunInvocationMsg> next = requests_.Recv();
  while (next) {
    const double start_s = clock_.Now();
    held.push_back(RunOne(*next));
    const double end_s = clock_.Now();
    served_.fetch_add(1, std::memory_order_relaxed);
    last_run_s_[next->function_name] = end_s - start_s;
    if (held.size() == 1) oldest_s = end_s;
    next = held.size() < kMaxBatch && end_s - oldest_s < kCoalesceExecS
               ? requests_.TryRecv()
               : std::nullopt;
    if (next) {
      auto last = last_run_s_.find(next->function_name);
      if (last != last_run_s_.end() && last->second < kCoalesceExecS)
        continue;
    }
    callbacks_.on_done(std::exchange(held, {}));
    if (!next) next = requests_.Recv();
  }
}

void LibraryRuntime::ServeForked() {
  // A child per invocation, all sharing the retained context.  The
  // manager's slot accounting bounds concurrency.
  while (auto msg = requests_.Recv()) {
    {
      std::lock_guard<std::mutex> lock(fork_mu_);
      forked_.emplace_back([this, request = std::move(*msg)] {
        std::vector<InvocationDoneMsg> done;
        done.push_back(RunOne(request));
        served_.fetch_add(1, std::memory_order_relaxed);
        callbacks_.on_done(std::move(done));
      });
    }
    ReapForked(/*all=*/false);
  }
  ReapForked(/*all=*/true);
}

Status LibraryRuntime::Setup(TimingBreakdown& timing) {
  const double phase_start_s =
      telemetry_ != nullptr ? telemetry_->tracer.Now() : 0.0;
  // Stage inputs out of the worker cache; unpack environments.
  Stopwatch watch(clock_);
  for (const auto& decl : spec_.inputs) {
    auto blob = store_->Get(decl.id);
    if (!blob.ok())
      return FailedPreconditionError("library input not staged: " + decl.name);
    if (decl.unpack) {
      bool unpacked_now = false;
      Stopwatch unpack_watch(clock_);
      auto dir = unpacked_->GetOrUnpack(decl.id, *blob, &unpacked_now);
      if (!dir.ok()) return dir.status();
      if (unpacked_now && telemetry_ != nullptr) {
        telemetry_->metrics.GetCounter("worker.unpacks").Add();
        telemetry_->metrics.GetHistogram("worker.unpack_s")
            .Observe(unpack_watch.Elapsed());
      }
      held_envs_.push_back(*dir);
      for (const auto& [name, content] : (*dir)->files)
        files_.emplace(name, content);
    } else if (decl.kind != storage::FileKind::kSerializedFunction) {
      files_.emplace(decl.name, std::move(*blob));
    }
  }
  timing.worker_s = watch.Elapsed();

  // Reconstruct function objects (the "deserialize + rebuild" cost).
  watch.Restart();
  for (const auto& fn_name : spec_.function_names) {
    BoundFunction bound;
    // Serialized-path functions ship as an input file named "fn:<name>".
    bool via_blob = false;
    for (const auto& decl : spec_.inputs) {
      if (decl.kind == storage::FileKind::kSerializedFunction &&
          decl.name == "fn:" + fn_name) {
        auto blob = store_->Get(decl.id);
        if (!blob.ok()) return blob.status();
        auto parsed = serde::SerializedFunction::Deserialize(*blob);
        if (!parsed.ok()) return parsed.status();
        auto def = registry_->FindFunction(parsed->name());
        if (!def.ok()) return def.status();
        bound.def = std::move(*def);
        bound.closure = parsed->closure();
        via_blob = true;
        break;
      }
    }
    if (!via_blob) {
      auto def = registry_->FindFunction(fn_name);
      if (!def.ok()) return def.status();
      bound.def = std::move(*def);
    }
    functions_.emplace(fn_name, std::move(bound));
  }
  timing.deserialize_s = watch.Elapsed();

  // Run the context-setup function: build the retained in-memory state.
  // The stopwatch restarts here so context_s is pure context-setup cost;
  // the deserialize work above is attributed to deserialize_s.
  watch.Restart();
  if (fault_ && fault_->InjectSetupFailure(fault_endpoint_))
    return InternalError("injected library setup failure");
  if (!spec_.setup_name.empty()) {
    auto setup = registry_->FindSetup(spec_.setup_name);
    if (!setup.ok()) return setup.status();
    auto args = serde::Value::FromBlob(spec_.setup_args);
    if (!args.ok()) return args.status();
    serde::InvocationEnv env;
    env.files = &files_;
    env.sandbox = "library-" + std::to_string(instance_id_);
    auto context = setup->fn(*args, env);
    if (!context.ok()) return context.status();
    context_ = std::move(*context);
  }
  timing.context_s = watch.Elapsed();

  if (telemetry_ != nullptr) {
    if (setup_s_ != nullptr)
      setup_s_->Observe(timing.worker_s + timing.deserialize_s +
                        timing.context_s);
    if (telemetry_->tracer.enabled()) {
      // Chain the setup phases off the install's trace (EmitLinked degrades
      // to plain spans when no trace was carried in).
      auto& tracer = telemetry_->tracer;
      double t = phase_start_s;
      telemetry::TraceContext ctx = setup_trace_;
      ctx = tracer.EmitLinked(ctx, telemetry::Phase::kUnpack, "library",
                              track_, instance_id_, t, t + timing.worker_s);
      t += timing.worker_s;
      ctx = tracer.EmitLinked(ctx, telemetry::Phase::kDeserialize, "library",
                              track_, instance_id_, t,
                              t + timing.deserialize_s);
      t += timing.deserialize_s;
      tracer.EmitLinked(ctx, telemetry::Phase::kContextSetup, "library",
                        track_, instance_id_, t, t + timing.context_s);
    }
  }
  return Status::Ok();
}

InvocationDoneMsg LibraryRuntime::RunOne(const RunInvocationMsg& msg) {
  InvocationDoneMsg done;
  done.id = msg.id;
  done.instance_id = instance_id_;
  done.trace = msg.trace;  // ride the trace back even if this side is untraced
  const double phase_start_s =
      telemetry_ != nullptr ? telemetry_->tracer.Now() : 0.0;

  // Load arguments into memory — the only per-invocation payload (§3.4).
  Stopwatch watch(clock_);
  auto args = serde::Value::FromBlob(msg.args);
  if (!args.ok()) {
    done.ok = false;
    done.error = args.status().ToString();
    return done;
  }
  // Splice pass-by-reference arguments: the worker fetched every missing
  // payload into the local store before submitting, so these Gets hit.
  for (const RefArg& ra : msg.ref_args) {
    auto payload = store_->Get(ra.ref.id);
    if (!payload.ok()) {
      done.ok = false;
      done.error = "ref argument not in store: " + payload.status().ToString();
      return done;
    }
    auto value = serde::Value::FromBlob(*payload);
    if (!value.ok()) {
      done.ok = false;
      done.error = "ref argument undecodable: " + value.status().ToString();
      return done;
    }
    if (args->type() != serde::Value::Type::kList ||
        ra.arg_index >= args->AsList().size()) {
      done.ok = false;
      done.error = "ref arg index out of range: " +
                   std::to_string(ra.arg_index);
      return done;
    }
    args->AsList()[ra.arg_index] = std::move(*value);
  }
  auto fn_it = functions_.find(msg.function_name);
  if (fn_it == functions_.end()) {
    done.ok = false;
    done.error = "function not in library: " + msg.function_name;
    return done;
  }
  done.timing.deserialize_s = watch.Elapsed();

  if (fault_ && fault_->InjectInvocationFailure(fault_endpoint_)) {
    done.ok = false;
    done.error = "injected invocation failure";
    return done;
  }

  // Execute in the retained environment.  An injected straggler delay is
  // charged to exec_s: from the outside it is simply a slow execution.
  watch.Restart();
  if (fault_) {
    const double slow_s = fault_->StragglerDelayS(fault_endpoint_);
    if (slow_s > 0.0)
      std::this_thread::sleep_for(std::chrono::duration<double>(slow_s));
  }
  serde::InvocationEnv env;
  env.files = &files_;
  env.context = context_.get();
  env.closure = &fn_it->second.closure;
  env.sandbox = "sandbox-" + std::to_string(msg.id);
  auto result = fn_it->second.def.fn(*args, env);
  done.timing.exec_s = watch.Elapsed();

  if (!result.ok()) {
    done.ok = false;
    done.error = result.status().ToString();
    return done;
  }
  done.ok = true;
  done.result = result->ToBlob();
  if (ref_min_bytes_ > 0 && done.result.size() >= ref_min_bytes_) {
    // Retain the payload locally (pinned against eviction) and answer with
    // a reference: the result bytes never cross the manager's inbox, and a
    // downstream consumer fetches them peer-to-peer.  If the store rejects
    // the payload the result simply ships by value — refs are an
    // optimization, never a correctness dependency.
    const hash::ContentId ref_id = NextRefId(ref_worker_);
    if (store_->PutTrusted(ref_id, done.result).ok()) {
      (void)store_->Pin(ref_id);
      if (refs_held_ != nullptr)
        refs_held_->fetch_add(1, std::memory_order_relaxed);
      done.ref = BlobRef{ref_id, done.result.size(), ref_worker_};
      done.result = Blob();
    }
  }
  if (telemetry_ != nullptr) {
    invocations_metric_->Add();
    invoke_exec_s_->Observe(done.timing.exec_s);
    if (telemetry_->tracer.enabled()) {
      // deserialize -> exec chain off the manager's dispatch span; the exec
      // context rides back on the reply so the result span links to it.
      auto& tracer = telemetry_->tracer;
      telemetry::TraceContext ctx = msg.trace;
      ctx = tracer.EmitLinked(ctx, telemetry::Phase::kDeserialize,
                              "invocation", track_, msg.id, phase_start_s,
                              phase_start_s + done.timing.deserialize_s);
      ctx = tracer.EmitLinked(ctx, telemetry::Phase::kExec, "invocation",
                              track_, msg.id,
                              phase_start_s + done.timing.deserialize_s,
                              phase_start_s + done.timing.deserialize_s +
                                  done.timing.exec_s);
      done.trace = ctx;
    }
  }
  return done;
}

void LibraryRuntime::ReapForked(bool all) {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(fork_mu_);
    if (all) {
      to_join.swap(forked_);
    } else if (forked_.size() > 64) {
      // Bound the backlog: join the oldest half (they are likely done).
      const std::size_t keep = forked_.size() / 2;
      to_join.assign(std::make_move_iterator(forked_.begin()),
                     std::make_move_iterator(forked_.end() -
                                             static_cast<long>(keep)));
      forked_.erase(forked_.begin(),
                    forked_.end() - static_cast<long>(keep));
    }
  }
  for (auto& t : to_join)
    if (t.joinable()) t.join();
}

}  // namespace vinelet::core
