// LibraryRuntime: the worker-side daemon that retains a function context.
//
// This is the paper's "library" (§3.4): a special task that performs the
// one-time context setup — staging input files, unpacking the environment,
// deserializing function code, running the context-setup function — then
// stays resident, serving invocations that only carry their arguments.
// Direct mode executes an invocation synchronously in the library's own
// thread and hands the results of cheap calls back in groups (see
// kCoalesceExecS); fork mode spawns a child (a thread here, standing in for
// TaskVine's fork(2)) per invocation so concurrent invocations share the
// same retained context.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/channel.hpp"
#include "common/clock.hpp"
#include "core/protocol.hpp"
#include "net/fault.hpp"
#include "core/unpack_registry.hpp"
#include "serde/function_registry.hpp"
#include "storage/content_store.hpp"
#include "telemetry/telemetry.hpp"

namespace vinelet::core {

class LibraryRuntime {
 public:
  /// What setup produced: its cost breakdown and the memory footprint of
  /// the retained context (reported for manager-side accounting, §2.1.3).
  struct SetupReport {
    TimingBreakdown timing;
    std::uint64_t context_memory_bytes = 0;
  };

  struct Callbacks {
    /// Fired once after setup: OK with the setup report, or the setup
    /// failure (the manager then discards the instance).
    std::function<void(LibraryInstanceId, Result<SetupReport>)> on_ready;

    /// Fired with finished invocations, in completion order: one per call
    /// in fork mode; in direct mode, every result one library turn held
    /// back (see kCoalesceExecS), so the host can send them together.
    std::function<void(std::vector<InvocationDoneMsg>)> on_done;
  };

  /// Direct mode holds a finished call's result while it runs the next
  /// queued call only when that call's function last ran in under this
  /// long, and only until the oldest held result is this old (or kMaxBatch
  /// results are held).  It bounds the delay a held result can see to
  /// about twice this.
  static constexpr double kCoalesceExecS = 50e-6;

  /// `telemetry` (optional) receives unpack/deserialize/context-setup spans
  /// for the one-time setup and deserialize/exec spans per invocation, on
  /// track `track` ("library-<name>#<id>" when empty).
  LibraryRuntime(LibrarySpec spec, LibraryInstanceId instance_id,
                 storage::ContentStore* store, UnpackRegistry* unpacked,
                 const serde::FunctionRegistry* registry, Callbacks callbacks,
                 telemetry::Telemetry* telemetry = nullptr,
                 std::string track = {});
  ~LibraryRuntime();

  LibraryRuntime(const LibraryRuntime&) = delete;
  LibraryRuntime& operator=(const LibraryRuntime&) = delete;

  void Start();

  /// Stops accepting invocations, waits for running ones, joins the thread.
  void Stop();

  /// Enqueues an invocation; false if the library is shutting down.
  bool Submit(RunInvocationMsg msg);

  /// Enqueues a whole dispatch batch under one channel lock (batched
  /// RunInvocationBatchMsg unpack path).  Returns the number of items
  /// accepted; fewer than msgs.size() means the library is shutting down
  /// and items from the returned index on were not consumed.
  std::size_t SubmitBatch(std::vector<RunInvocationMsg>& msgs);

  LibraryInstanceId instance_id() const noexcept { return instance_id_; }
  const LibrarySpec& spec() const noexcept { return spec_; }

  /// Number of invocations completed by this instance — its "share value"
  /// (paper Fig 11).
  std::uint64_t invocations_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

  /// Invocations accepted but not yet picked up by the library thread
  /// (live-introspection queue depth).
  std::uint64_t queued() const { return requests_.size(); }

  /// Parent context for the one-time setup spans (the InstallLibraryMsg's
  /// trace).  Call before Start().
  void SetSetupTrace(telemetry::TraceContext trace) noexcept {
    setup_trace_ = trace;
  }

  /// Fault injector consulted during setup and per invocation (chaos
  /// harness); `endpoint` keys this worker's deterministic fault stream.
  /// Call before Start().
  void SetFaultInjector(std::shared_ptr<net::FaultInjector> injector,
                        net::EndpointId endpoint) noexcept {
    fault_ = std::move(injector);
    fault_endpoint_ = endpoint;
  }

  /// Pass-by-reference results: a successful invocation whose serialized
  /// result is at least `min_bytes` is retained (pinned) in the worker's
  /// store and answered with a BlobRef naming `worker` as the replica,
  /// instead of inline bytes.  0 disables (every result ships by value).
  /// `refs_held` (optional) is the hosting worker's pinned-ref gauge,
  /// incremented for each retained result.  Call before Start().
  void SetRefPolicy(std::uint64_t min_bytes, WorkerId worker,
                    std::atomic<std::uint64_t>* refs_held) noexcept {
    ref_min_bytes_ = min_bytes;
    ref_worker_ = worker;
    refs_held_ = refs_held;
  }

 private:
  void Run();
  /// Runs calls on this thread, handing cheap results over in groups.
  void ServeDirect();
  /// Runs each call on a child thread of its own.
  void ServeForked();
  Status Setup(TimingBreakdown& timing);
  InvocationDoneMsg RunOne(const RunInvocationMsg& msg);
  void ReapForked(bool all);

  LibrarySpec spec_;
  LibraryInstanceId instance_id_;
  storage::ContentStore* store_;
  UnpackRegistry* unpacked_;
  const serde::FunctionRegistry* registry_;
  Callbacks callbacks_;
  WallClock clock_;

  // ---- telemetry (optional; null = no spans/metrics) ----
  telemetry::Telemetry* telemetry_ = nullptr;
  std::string track_;
  telemetry::TraceContext setup_trace_;
  telemetry::Counter* invocations_metric_ = nullptr;
  telemetry::Histogram* invoke_exec_s_ = nullptr;
  telemetry::Histogram* setup_s_ = nullptr;

  std::shared_ptr<net::FaultInjector> fault_;
  net::EndpointId fault_endpoint_ = 0;

  std::uint64_t ref_min_bytes_ = 0;  // 0 = results always ship by value
  WorkerId ref_worker_ = 0;
  std::atomic<std::uint64_t>* refs_held_ = nullptr;

  Channel<RunInvocationMsg> requests_;
  std::thread thread_;
  std::atomic<std::uint64_t> served_{0};

  // Retained state, built once in Setup and read by invocations.
  struct BoundFunction {
    serde::FunctionDef def;
    serde::Value closure;
  };
  std::map<std::string, BoundFunction> functions_;
  /// Direct mode: how long each function's last call ran (library thread
  /// only).  A function missing here has never run and counts as slow.
  std::unordered_map<std::string, double> last_run_s_;
  std::map<std::string, Blob> files_;
  serde::ContextHandle context_;
  std::vector<std::shared_ptr<const poncho::UnpackedDir>> held_envs_;

  std::mutex fork_mu_;
  std::vector<std::thread> forked_;
};

}  // namespace vinelet::core
