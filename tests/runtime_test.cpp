// End-to-end tests of the real runtime: manager + workers + libraries, each
// case run over the in-process bus and over loopback TCP.  Covers all three
// context-reuse levels, library slot accounting, empty-library eviction,
// peer transfers, and fault injection (worker death with retry).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <variant>

#include "cluster_fixture.hpp"
#include "core/blob_ref.hpp"
#include "core/protocol.hpp"
#include "poncho/packer.hpp"

namespace vinelet::core {
namespace {

using serde::ContextHandle;
using serde::FunctionContext;
using serde::InvocationEnv;
using serde::Value;

/// Context retained by the test library: a number plus a liveness flag.
class NumberContext final : public FunctionContext {
 public:
  explicit NumberContext(std::int64_t number) : number_(number) {}
  std::int64_t number() const noexcept { return number_; }
  std::uint64_t MemoryBytes() const override { return sizeof(*this); }

 private:
  std::int64_t number_;
};

struct TestState {
  std::atomic<int> setup_runs{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> peak_concurrent{0};
};

/// Test harness: a cluster over the parameter's transport + an isolated
/// registry.
class RuntimeTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void StartCluster(std::size_t workers, ManagerConfig manager_config = {},
                    Resources worker_resources = {32, 64 * 1024, 64 * 1024},
                    std::uint64_t ref_results_min_bytes = 0) {
    state_ = std::make_shared<TestState>();
    RegisterTestFunctions();
    manager_config.registry = &registry_;
    FactoryConfig factory_config;
    factory_config.initial_workers = workers;
    factory_config.worker_resources = worker_resources;
    factory_config.ref_results_min_bytes = ref_results_min_bytes;
    cluster_ = StartTestCluster(GetParam(), manager_config, factory_config);
    ASSERT_NE(cluster_, nullptr);
    manager_ = &cluster_->manager();
    factory_ = &cluster_->factory();
  }

  void RegisterTestFunctions() {
    auto state = state_;

    serde::FunctionDef add;
    add.name = "add";
    add.fn = [](const Value& args, const InvocationEnv&) -> Result<Value> {
      auto a = args.GetInt("a");
      if (!a.ok()) return a.status();
      auto b = args.GetInt("b");
      if (!b.ok()) return b.status();
      return Value(*a + *b);
    };
    ASSERT_TRUE(registry_.RegisterFunction(add).ok());

    serde::FunctionDef fail;
    fail.name = "always_fails";
    fail.fn = [](const Value&, const InvocationEnv&) -> Result<Value> {
      return InternalError("deliberate failure");
    };
    ASSERT_TRUE(registry_.RegisterFunction(fail).ok());

    serde::FunctionDef closure_add;
    closure_add.name = "closure_add";
    closure_add.fn = [](const Value& args,
                        const InvocationEnv& env) -> Result<Value> {
      auto a = args.GetInt("a");
      if (!a.ok()) return a.status();
      const std::int64_t captured =
          env.closure != nullptr && !env.closure->is_null()
              ? env.closure->Get("offset").AsInt()
              : 0;
      return Value(*a + captured);
    };
    ASSERT_TRUE(registry_.RegisterFunction(closure_add).ok());

    serde::FunctionDef read_file;
    read_file.name = "read_file";
    read_file.fn = [](const Value& args,
                      const InvocationEnv& env) -> Result<Value> {
      auto name = args.GetString("name");
      if (!name.ok()) return name.status();
      if (!env.HasFile(*name)) return NotFoundError("missing: " + *name);
      return Value(static_cast<std::int64_t>(env.File(*name).size()));
    };
    ASSERT_TRUE(registry_.RegisterFunction(read_file).ok());

    serde::FunctionDef sleepy;
    sleepy.name = "sleepy";
    sleepy.fn = [state](const Value& args,
                        const InvocationEnv&) -> Result<Value> {
      const int now = state->concurrent.fetch_add(1) + 1;
      int peak = state->peak_concurrent.load();
      while (now > peak &&
             !state->peak_concurrent.compare_exchange_weak(peak, now)) {
      }
      auto ms = args.GetInt("ms");
      if (!ms.ok()) return ms.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
      state->concurrent.fetch_sub(1);
      return Value(true);
    };
    ASSERT_TRUE(registry_.RegisterFunction(sleepy).ok());

    serde::FunctionDef make_payload;
    make_payload.name = "make_payload";
    make_payload.fn = [](const Value& args,
                         const InvocationEnv&) -> Result<Value> {
      auto bytes = args.GetInt("bytes");
      if (!bytes.ok()) return bytes.status();
      auto fill = args.GetInt("fill");
      if (!fill.ok()) return fill.status();
      return Value(std::string(static_cast<std::size_t>(*bytes),
                               static_cast<char>('a' + *fill % 23)));
    };
    ASSERT_TRUE(registry_.RegisterFunction(make_payload).ok());

    // Positional consumer: args is [payload]; a ref arg must have been
    // spliced back into a concrete string before the function runs.
    serde::FunctionDef payload_probe;
    payload_probe.name = "payload_probe";
    payload_probe.fn = [](const Value& args,
                          const InvocationEnv&) -> Result<Value> {
      if (args.type() != Value::Type::kList || args.AsList().empty())
        return InvalidArgumentError("expected positional [payload]");
      const Value& payload = args.AsList()[0];
      if (payload.type() != Value::Type::kString)
        return InvalidArgumentError("ref payload was not spliced");
      const std::string& s = payload.AsString();
      return Value(static_cast<std::int64_t>(s.size()) +
                   static_cast<std::int64_t>(s[0]));
    };
    ASSERT_TRUE(registry_.RegisterFunction(payload_probe).ok());

    serde::ContextSetupDef setup;
    setup.name = "number_setup";
    setup.fn = [state](const Value& args,
                       const InvocationEnv&) -> Result<ContextHandle> {
      state->setup_runs.fetch_add(1);
      return ContextHandle(
          std::make_shared<NumberContext>(args.Get("number").AsInt()));
    };
    ASSERT_TRUE(registry_.RegisterSetup(setup).ok());

    serde::FunctionDef use_context;
    use_context.name = "use_context";
    use_context.setup_name = "number_setup";
    use_context.fn = [](const Value& args,
                        const InvocationEnv& env) -> Result<Value> {
      auto x = args.GetInt("x");
      if (!x.ok()) return x.status();
      const auto* ctx = dynamic_cast<const NumberContext*>(env.context);
      serde::ValueDict out;
      out["had_context"] = Value(ctx != nullptr);
      out["sum"] = Value(*x + (ctx != nullptr ? ctx->number() : 0));
      return Value(std::move(out));
    };
    ASSERT_TRUE(registry_.RegisterFunction(use_context).ok());

    serde::FunctionDef slow_ctx;
    slow_ctx.name = "slow_with_context";
    slow_ctx.setup_name = "number_setup";
    slow_ctx.fn = [state](const Value& args,
                          const InvocationEnv&) -> Result<Value> {
      const int now = state->concurrent.fetch_add(1) + 1;
      int peak = state->peak_concurrent.load();
      while (now > peak &&
             !state->peak_concurrent.compare_exchange_weak(peak, now)) {
      }
      auto ms = args.GetInt("ms");
      if (!ms.ok()) return ms.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
      state->concurrent.fetch_sub(1);
      return Value(true);
    };
    ASSERT_TRUE(registry_.RegisterFunction(slow_ctx).ok());

    serde::FunctionDef fail_if;
    fail_if.name = "fail_if";
    fail_if.setup_name = "number_setup";
    fail_if.fn = [](const Value& args,
                    const InvocationEnv& env) -> Result<Value> {
      if (args.Get("fail").AsBool()) return InternalError("poisoned item");
      auto x = args.GetInt("x");
      if (!x.ok()) return x.status();
      const auto* ctx = dynamic_cast<const NumberContext*>(env.context);
      return Value(*x + (ctx != nullptr ? ctx->number() : 0));
    };
    ASSERT_TRUE(registry_.RegisterFunction(fail_if).ok());
  }

  serde::FunctionRegistry registry_;
  std::shared_ptr<TestState> state_;
  std::unique_ptr<Cluster> cluster_;
  Manager* manager_ = nullptr;
  Factory* factory_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(, RuntimeTest, kBothTransports, TransportName);

// ---------------------------------------------------------------------------
// Stateless tasks (L1/L2 plumbing).
// ---------------------------------------------------------------------------

TEST_P(RuntimeTest, SingleTaskRoundTrip) {
  StartCluster(1);
  auto future = manager_->SubmitTask(
      "add", Value::Dict({{"a", Value(2)}, {"b", Value(40)}}), {},
      Resources{1, 64, 64});
  auto outcome = future->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->value.AsInt(), 42);
  EXPECT_GE(outcome->timing.exec_s, 0.0);
  EXPECT_EQ(manager_->metrics().tasks_completed, 1u);
}

TEST_P(RuntimeTest, TaskWithoutSerializedFunctionUsesNamedPath) {
  StartCluster(1);
  auto future = manager_->SubmitTask(
      "add", Value::Dict({{"a", Value(1)}, {"b", Value(1)}}), {},
      Resources{1, 64, 64}, /*ship_serialized_function=*/false);
  auto outcome = future->Wait();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->value.AsInt(), 2);
}

TEST_P(RuntimeTest, TaskFailurePropagates) {
  StartCluster(1);
  auto future =
      manager_->SubmitTask("always_fails", Value(), {}, Resources{1, 64, 64});
  auto outcome = future->Wait();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), ErrorCode::kInternal);
}

TEST_P(RuntimeTest, UnknownFunctionFailsCleanly) {
  StartCluster(1);
  auto future = manager_->SubmitTask("no_such_function", Value(), {},
                                     Resources{1, 64, 64},
                                     /*ship_serialized_function=*/false);
  auto outcome = future->Wait();
  EXPECT_FALSE(outcome.ok());
}

TEST_P(RuntimeTest, InlineUncachedInputRidesWithTask) {
  StartCluster(1);
  const Blob data = Blob::FromString(std::string(2048, 'd'));
  storage::FileDecl decl = manager_->DeclareBlob(
      "dataset", data, storage::FileKind::kData, /*cache=*/false);
  auto future = manager_->SubmitTask(
      "read_file", Value::Dict({{"name", Value("dataset")}}), {decl},
      Resources{1, 64, 64});
  auto outcome = future->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->value.AsInt(), 2048);
  // Inline (L1) files are never staged into the worker cache.
  Worker* worker = factory_->GetWorker(factory_->WorkerIds()[0]);
  ASSERT_NE(worker, nullptr);
  EXPECT_FALSE(worker->store().Contains(decl.id));
}

TEST_P(RuntimeTest, CachedInputStagedOncePerWorker) {
  StartCluster(1);
  const Blob data = Blob::FromString(std::string(4096, 'c'));
  storage::FileDecl decl = manager_->DeclareBlob(
      "dataset", data, storage::FileKind::kData, /*cache=*/true);
  for (int i = 0; i < 5; ++i) {
    auto future = manager_->SubmitTask(
        "read_file", Value::Dict({{"name", Value("dataset")}}), {decl},
        Resources{1, 64, 64});
    auto outcome = future->Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->value.AsInt(), 4096);
  }
  // One transfer of the dataset; the serialized function file also caches,
  // so at most 2 manager transfers total despite 5 tasks.
  EXPECT_LE(manager_->metrics().manager_transfers, 2u);
  Worker* worker = factory_->GetWorker(factory_->WorkerIds()[0]);
  EXPECT_TRUE(worker->store().Contains(decl.id));
}

TEST_P(RuntimeTest, EnvironmentTarballUnpackedAndShared) {
  StartCluster(1);
  const Blob tarball = poncho::Packer::PackFiles(
      {{"package.lib", Blob::FromString(std::string(1000, 'p'))}});
  storage::FileDecl decl =
      manager_->DeclareBlob("env", tarball, storage::FileKind::kEnvironment,
                            /*cache=*/true, /*peer_transfer=*/true,
                            /*unpack=*/true);
  // The unpacked member file is visible to the function by its entry name.
  for (int i = 0; i < 3; ++i) {
    auto future = manager_->SubmitTask(
        "read_file", Value::Dict({{"name", Value("package.lib")}}), {decl},
        Resources{1, 64, 64});
    auto outcome = future->Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->value.AsInt(), 1000);
  }
}

TEST_P(RuntimeTest, SerializedClosureTravelsWithTask) {
  StartCluster(1);
  // Model a lambda with captures: serialize closure explicitly and declare
  // it as the function input file.
  const Blob fn_blob = serde::SerializedFunction::Serialize(
      "closure_add", Value::Dict({{"offset", Value(100)}}), 256);
  storage::FileDecl decl =
      manager_->DeclareBlob("fn:closure_add", fn_blob,
                            storage::FileKind::kSerializedFunction,
                            /*cache=*/true);
  auto future = manager_->SubmitTask("closure_add",
                                     Value::Dict({{"a", Value(1)}}), {decl},
                                     Resources{1, 64, 64},
                                     /*ship_serialized_function=*/false);
  auto outcome = future->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->value.AsInt(), 101);
}

TEST_P(RuntimeTest, ManyTasksAcrossWorkers) {
  StartCluster(3);
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 60; ++i) {
    futures.push_back(manager_->SubmitTask(
        "add", Value::Dict({{"a", Value(i)}, {"b", Value(i)}}), {},
        Resources{1, 64, 64}));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  for (int i = 0; i < 60; ++i) {
    auto outcome = futures[static_cast<std::size_t>(i)]->Wait();
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->value.AsInt(), 2 * i);
  }
  EXPECT_EQ(manager_->metrics().tasks_completed, 60u);
}

// ---------------------------------------------------------------------------
// Libraries and invocations (L3).
// ---------------------------------------------------------------------------

TEST_P(RuntimeTest, LibraryInvocationUsesRetainedContext) {
  StartCluster(1);
  auto spec = manager_->CreateLibraryFromFunctions(
      "numbers", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(1000)}}));
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  auto future = manager_->SubmitCall("numbers", "use_context",
                                     Value::Dict({{"x", Value(7)}}));
  auto outcome = future->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->value.Get("had_context").AsBool());
  EXPECT_EQ(outcome->value.Get("sum").AsInt(), 1007);
}

TEST_P(RuntimeTest, ContextSetupRunsOncePerInstance) {
  StartCluster(1);
  auto spec = manager_->CreateLibraryFromFunctions(
      "numbers", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(5)}}));
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  std::vector<FuturePtr> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(manager_->SubmitCall("numbers", "use_context",
                                           Value::Dict({{"x", Value(i)}})));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  for (auto& future : futures) ASSERT_TRUE(future->Wait().ok());
  // One worker, whole-worker library: exactly one instance, one setup.
  EXPECT_EQ(state_->setup_runs.load(), 1);
  EXPECT_EQ(manager_->metrics().invocations_completed, 20u);
  EXPECT_EQ(manager_->metrics().libraries_deployed, 1u);
}

TEST_P(RuntimeTest, RetainedContextMemoryAccounted) {
  StartCluster(1);
  auto spec = manager_->CreateLibraryFromFunctions(
      "numbers", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(5)}}));
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  ASSERT_TRUE(manager_
                  ->SubmitCall("numbers", "use_context",
                               Value::Dict({{"x", Value(1)}}))
                  ->Wait()
                  .ok());
  // The library reported its NumberContext's footprint at LibraryReady.
  EXPECT_EQ(manager_->metrics().retained_context_bytes,
            sizeof(NumberContext));

  // Evicting the library releases the accounted memory.
  auto spec_b = manager_->CreateLibraryFromFunctions(
      "other", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(6)}}));
  ASSERT_TRUE(spec_b.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec_b).ok());
  ASSERT_TRUE(manager_
                  ->SubmitCall("other", "use_context",
                               Value::Dict({{"x", Value(1)}}))
                  ->Wait()
                  .ok());
  // One worker: "numbers" was evicted for "other"; only one context remains.
  EXPECT_EQ(manager_->metrics().retained_context_bytes,
            sizeof(NumberContext));
}

TEST_P(RuntimeTest, ForkModeSlotsAllowConcurrency) {
  StartCluster(1);
  LibraryOptions options;
  options.slots = 4;
  options.exec_mode = ExecMode::kFork;
  auto spec = manager_->CreateLibraryFromFunctions(
      "sleepers", {"slow_with_context"}, "number_setup",
      Value::Dict({{"number", Value(0)}}), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  std::vector<FuturePtr> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(manager_->SubmitCall(
        "sleepers", "slow_with_context", Value::Dict({{"ms", Value(50)}})));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  for (auto& future : futures) ASSERT_TRUE(future->Wait().ok());
  EXPECT_GE(state_->peak_concurrent.load(), 2);  // genuinely parallel
  EXPECT_LE(state_->peak_concurrent.load(), 4);  // bounded by slots
}

TEST_P(RuntimeTest, DirectModeSerializesInvocations) {
  StartCluster(1);
  LibraryOptions options;
  options.slots = 1;
  options.exec_mode = ExecMode::kDirect;
  auto spec = manager_->CreateLibraryFromFunctions(
      "serial", {"slow_with_context"}, "number_setup",
      Value::Dict({{"number", Value(0)}}), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  for (int i = 0; i < 4; ++i) {
    manager_->SubmitCall("serial", "slow_with_context",
                         Value::Dict({{"ms", Value(20)}}));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  EXPECT_EQ(state_->peak_concurrent.load(), 1);
}

TEST_P(RuntimeTest, CallToUnknownLibraryFails) {
  StartCluster(1);
  auto outcome = manager_->SubmitCall("ghost", "f", Value())->Wait();
  EXPECT_EQ(outcome.status().code(), ErrorCode::kNotFound);
}

TEST_P(RuntimeTest, CallToUnknownFunctionInLibraryFails) {
  StartCluster(1);
  auto spec = manager_->CreateLibraryFromFunctions(
      "numbers", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(0)}}));
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  auto outcome =
      manager_->SubmitCall("numbers", "not_in_library", Value())->Wait();
  EXPECT_FALSE(outcome.ok());
}

TEST_P(RuntimeTest, LibrarySpreadsAcrossWorkers) {
  StartCluster(3);
  LibraryOptions options;
  options.slots = 1;
  auto spec = manager_->CreateLibraryFromFunctions(
      "sleepers", {"slow_with_context"}, "number_setup",
      Value::Dict({{"number", Value(0)}}), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 9; ++i) {
    futures.push_back(manager_->SubmitCall(
        "sleepers", "slow_with_context", Value::Dict({{"ms", Value(60)}})));
  }
  ASSERT_TRUE(manager_->WaitAll(90.0).ok());
  // With 1-slot whole-worker libraries and 9 queued calls, the manager
  // must have deployed one instance per worker.
  EXPECT_EQ(manager_->metrics().libraries_deployed, 3u);
  EXPECT_GE(state_->peak_concurrent.load(), 2);
}

TEST_P(RuntimeTest, EmptyLibraryEvictedForStarvedFunction) {
  StartCluster(1);  // single worker: the two libraries must take turns
  auto spec_a = manager_->CreateLibraryFromFunctions(
      "lib_a", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(1)}}));
  ASSERT_TRUE(spec_a.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec_a).ok());
  ASSERT_TRUE(
      manager_->SubmitCall("lib_a", "use_context", Value::Dict({{"x", Value(0)}}))
          ->Wait()
          .ok());

  auto spec_b = manager_->CreateLibraryFromFunctions(
      "lib_b", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(2)}}));
  ASSERT_TRUE(spec_b.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec_b).ok());
  auto outcome = manager_->SubmitCall("lib_b", "use_context",
                                      Value::Dict({{"x", Value(0)}}))
                     ->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->value.Get("sum").AsInt(), 2);
  EXPECT_GE(manager_->metrics().libraries_evicted, 1u);
  EXPECT_EQ(manager_->metrics().libraries_deployed, 2u);
}

// ---------------------------------------------------------------------------
// The batched L3 call path: wake-ups, result coalescing, refills.
// ---------------------------------------------------------------------------

TEST_P(RuntimeTest, IdleManagerTakesACallWithoutWaitingForItsPoll) {
  // Each call goes to a manager with nothing else to do.  The manager parks
  // on its inbox between turns, polling every 1 ms; a submitted call must
  // wake it rather than wait out the poll.  The submit span times exactly
  // that wait: from SubmitCall until the manager thread takes the call.
  StartCluster(1);
  auto spec = manager_->CreateLibraryFromFunctions("adder", {"add"});
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  const Value args = Value::Dict({{"a", Value(1)}, {"b", Value(2)}});
  ASSERT_TRUE(manager_->SubmitCall("adder", "add", args)->Wait().ok());

  telemetry::SpanTracer& tracer = manager_->telemetry().tracer;
  tracer.SetEnabled(true);
  for (int i = 0; i < 50; ++i) {
    auto outcome = manager_->SubmitCall("adder", "add", args)->Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  tracer.SetEnabled(false);
  std::vector<double> waits_ms;
  for (const telemetry::SpanRecord& span : tracer.Snapshot()) {
    if (span.category == "invocation" &&
        span.name == telemetry::PhaseName(telemetry::Phase::kSubmit))
      waits_ms.push_back(span.Duration() * 1e3);
  }
  ASSERT_EQ(waits_ms.size(), 50u);
  std::nth_element(waits_ms.begin(), waits_ms.begin() + 25, waits_ms.end());
  EXPECT_LT(waits_ms[25], 0.25)
      << "median wait for an idle manager to take a call: " << waits_ms[25]
      << " ms";
}

TEST_P(RuntimeTest, SlowCallDoesNotHoldBackTheResultBeforeIt) {
  // A direct-mode library holds a finished call's result while it runs the
  // next queued call only when that call is known to be cheap.  Behind a
  // 30 ms call, the earlier result must go back at once.  Round 0 runs both
  // functions for the first time; in round 1 the library knows `add` is
  // cheap and `sleepy` is not.
  StartCluster(1);
  LibraryOptions options;
  options.slots = 2;
  auto spec = manager_->CreateLibraryFromFunctions(
      "mixed_speed", {"add", "sleepy"}, "", Value(), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto fast = manager_->SubmitCall(
        "mixed_speed", "add", Value::Dict({{"a", Value(2)}, {"b", Value(3)}}));
    auto slow = manager_->SubmitCall("mixed_speed", "sleepy",
                                     Value::Dict({{"ms", Value(30)}}));
    auto outcome = fast->WaitFor(std::chrono::seconds(10));
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(slow->Ready()) << "the fast result waited for the slow call";
    ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
    EXPECT_EQ((*outcome)->value.AsInt(), 5);
    ASSERT_TRUE(slow->Wait().ok());
  }
  // Round 0 queued both calls before the instance was ready, so they left
  // in one dispatch batch.
  auto status = manager_->QueryStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status->scheduler.max_batch_size, 2u);
}

TEST_P(RuntimeTest, BurstOfCheapCallsResolvesEachFutureOnce) {
  // Results of a burst of cheap calls come back several to a send, each in
  // its own frame: every future resolves exactly once, with its own value.
  StartCluster(1);
  LibraryOptions options;
  options.slots = 16;
  auto spec = manager_->CreateLibraryFromFunctions("burst", {"add"}, "",
                                                   Value(), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 300; ++i) {
    futures.push_back(manager_->SubmitCall(
        "burst", "add", Value::Dict({{"a", Value(i)}, {"b", Value(1)}})));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  for (int i = 0; i < 300; ++i) {
    const FuturePtr& future = futures[static_cast<std::size_t>(i)];
    EXPECT_EQ(future->resolutions(), 1u) << "call " << i;
    auto outcome = future->Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->value.AsInt(), i + 1);
  }
}

TEST_P(RuntimeTest, BacklogRefillsFreedSlotsInBatches) {
  // Under a backlog of cheap calls, the slots that the replies of one
  // manager turn free are refilled by one dispatch frame, so batches keep
  // forming after the first one.  Refilling each slot as its reply is
  // decoded sends one call per frame (a mean batch near 1).
  StartCluster(1);
  LibraryOptions options;
  options.slots = 16;
  auto spec = manager_->CreateLibraryFromFunctions("backlog", {"add"}, "",
                                                   Value(), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  constexpr int kCalls = 800;
  for (int i = 0; i < kCalls; ++i) {
    (void)manager_->SubmitCall(
        "backlog", "add", Value::Dict({{"a", Value(i)}, {"b", Value(0)}}));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  const auto snapshot = manager_->telemetry().metrics.Snapshot();
  const auto* batches = snapshot.HistogramFor("manager.dispatch_batch_size");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->sum, static_cast<double>(kCalls));
  EXPECT_GE(batches->Mean(), 2.0)
      << batches->count << " dispatch frames for " << kCalls << " calls";
}

// ---------------------------------------------------------------------------
// Distribution.
// ---------------------------------------------------------------------------

TEST_P(RuntimeTest, PeerTransfersServeSecondWorker) {
  ManagerConfig config;
  config.peer_transfers = true;
  StartCluster(2, config, Resources{1, 64 * 1024, 64 * 1024});
  const Blob data = Blob::FromString(std::string(8192, 'p'));
  storage::FileDecl decl =
      manager_->DeclareBlob("dataset", data, storage::FileKind::kData, true);
  // Seed the first worker's cache (and the replica table) with one task...
  ASSERT_TRUE(manager_
                  ->SubmitTask("sleepy", Value::Dict({{"ms", Value(5)}}),
                               {decl}, Resources{1, 64, 64})
                  ->Wait()
                  .ok());
  // ...then saturate both single-core workers: the second worker's copy
  // must come from the first worker, not the manager.
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(manager_->SubmitTask(
        "sleepy", Value::Dict({{"ms", Value(30)}}), {decl},
        Resources{1, 64, 64}));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  for (auto& future : futures) ASSERT_TRUE(future->Wait().ok());
  const auto metrics = manager_->metrics();
  EXPECT_GE(metrics.peer_transfers, 1u);
}

TEST_P(RuntimeTest, PeerTransfersDisabledFallsBackToManager) {
  ManagerConfig config;
  config.peer_transfers = false;
  StartCluster(2, config, Resources{1, 64 * 1024, 64 * 1024});
  const Blob data = Blob::FromString(std::string(8192, 'q'));
  storage::FileDecl decl =
      manager_->DeclareBlob("dataset", data, storage::FileKind::kData, true);
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(manager_->SubmitTask(
        "sleepy", Value::Dict({{"ms", Value(30)}}), {decl},
        Resources{1, 64, 64}));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  EXPECT_EQ(manager_->metrics().peer_transfers, 0u);
}

TEST_P(RuntimeTest, BroadcastFileReachesEveryWorker) {
  StartCluster(5);
  std::string text(1 << 20, '\0');
  for (std::size_t i = 0; i < text.size(); ++i)
    text[i] = static_cast<char>('a' + (i * 31 + i / 257) % 23);
  const Blob data = Blob::FromString(std::move(text));
  storage::FileDecl decl =
      manager_->DeclareBlob("model", data, storage::FileKind::kData, true);
  auto outcome =
      manager_->BroadcastFile(decl, /*chunk_bytes=*/64 * 1024, /*fanout_cap=*/2)
          ->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->timing.transfer_s, 0.0);
  for (WorkerId id : factory_->WorkerIds()) {
    auto stored = factory_->GetWorker(id)->store().Get(decl.id);
    ASSERT_TRUE(stored.ok()) << "worker " << id << " missing broadcast blob";
    EXPECT_EQ(*stored, data);
  }
  // One pipelined tree, not one manager transfer per worker: the manager
  // sent the blob only to the fan-out roots.
  EXPECT_LE(manager_->metrics().manager_transfers, 2u);
}

TEST_P(RuntimeTest, BroadcastToZeroWorkersResolvesImmediately) {
  StartCluster(1);
  const Blob data = Blob::FromString(std::string(1024, 'z'));
  storage::FileDecl decl =
      manager_->DeclareBlob("tiny", data, storage::FileKind::kData, true);
  // An undeclared (never stored) blob must fail cleanly, not hang.
  storage::FileDecl ghost;
  ghost.name = "ghost";
  ghost.id = hash::ContentId::OfText("never stored");
  ghost.size = 10;
  EXPECT_FALSE(manager_->BroadcastFile(ghost)->Wait().ok());
  // A real blob on a 1-worker cluster completes trivially.
  EXPECT_TRUE(manager_->BroadcastFile(decl)->Wait().ok());
}

// ---------------------------------------------------------------------------
// Fault tolerance.
// ---------------------------------------------------------------------------

TEST_P(RuntimeTest, BroadcastSurvivesRelayDeathMidTransfer) {
  // Kill a worker while a many-chunk broadcast is in flight.  Whatever the
  // relay had not yet forwarded is lost to its subtree; the manager must
  // detect the death (probe or failed send) and re-feed the survivors.
  ManagerConfig config;
  config.broadcast_probe_s = 0.05;  // fast probe so the test stays quick
  StartCluster(8, config);
  std::string text(1 << 20, '\0');
  for (std::size_t i = 0; i < text.size(); ++i)
    text[i] = static_cast<char>(i * 131 + 17);
  const Blob data = Blob::FromString(std::move(text));
  storage::FileDecl decl =
      manager_->DeclareBlob("model", data, storage::FileKind::kData, true);

  auto future = manager_->BroadcastFile(decl, /*chunk_bytes=*/16 * 1024,
                                        /*fanout_cap=*/2);
  // Race the kill against the 64-chunk pipeline on purpose: depending on
  // timing the victim dies before its chunks, mid-relay, or after
  // confirming.  All three must converge.
  const WorkerId victim = factory_->WorkerIds()[1];
  ASSERT_TRUE(factory_->KillWorker(victim).ok());
  auto outcome = future->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  for (WorkerId id : factory_->WorkerIds()) {
    auto stored = factory_->GetWorker(id)->store().Get(decl.id);
    ASSERT_TRUE(stored.ok()) << "survivor " << id << " missing broadcast blob";
    EXPECT_EQ(*stored, data);
  }
}

TEST_P(RuntimeTest, QueuedTasksScheduleInSubmissionOrder) {
  // Pins the scheduler's FIFO sweep: tasks that could not be placed keep
  // their relative order in the queue (the compaction pass must be stable).
  auto order = std::make_shared<std::vector<std::int64_t>>();
  auto order_mu = std::make_shared<std::mutex>();
  serde::FunctionDef rec;
  rec.name = "record_order";
  rec.fn = [order, order_mu](const Value& args,
                             const InvocationEnv&) -> Result<Value> {
    std::lock_guard<std::mutex> lock(*order_mu);
    order->push_back(args.Get("i").AsInt());
    return Value(true);
  };
  ASSERT_TRUE(registry_.RegisterFunction(rec).ok());
  StartCluster(1, {}, Resources{1, 64 * 1024, 64 * 1024});
  // Occupy the only core so the later submissions pile up in the queue,
  // then drain strictly one at a time.
  auto blocker = manager_->SubmitTask(
      "sleepy", Value::Dict({{"ms", Value(80)}}), {}, Resources{1, 64, 64});
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(manager_->SubmitTask(
        "record_order", Value::Dict({{"i", Value(i)}}), {},
        Resources{1, 64, 64}));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());
  ASSERT_TRUE(blocker->Wait().ok());
  for (auto& future : futures) ASSERT_TRUE(future->Wait().ok());
  EXPECT_EQ(*order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST_P(RuntimeTest, TaskRetriedAfterWorkerDeath) {
  StartCluster(2, {}, Resources{1, 64 * 1024, 64 * 1024});
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(manager_->SubmitTask(
        "sleepy", Value::Dict({{"ms", Value(100)}}), {}, Resources{1, 64, 64}));
  }
  // Kill one worker while tasks are in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(factory_->KillWorker(factory_->WorkerIds()[0]).ok());
  ASSERT_TRUE(manager_->WaitAll(120.0).ok());
  int succeeded = 0;
  for (auto& future : futures)
    if (future->Wait().ok()) ++succeeded;
  // Every task eventually lands on the surviving worker.
  EXPECT_EQ(succeeded, 6);
}

TEST_P(RuntimeTest, InvocationsRequeuedAfterLibraryWorkerDeath) {
  StartCluster(2);
  LibraryOptions options;
  options.slots = 2;
  options.exec_mode = ExecMode::kFork;
  options.resources = Resources{2, 1024, 1024};
  auto spec = manager_->CreateLibraryFromFunctions(
      "sleepers", {"slow_with_context"}, "number_setup",
      Value::Dict({{"number", Value(0)}}), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  std::vector<FuturePtr> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(manager_->SubmitCall(
        "sleepers", "slow_with_context", Value::Dict({{"ms", Value(80)}})));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(factory_->KillWorker(factory_->WorkerIds()[0]).ok());
  ASSERT_TRUE(manager_->WaitAll(120.0).ok());
  int succeeded = 0;
  for (auto& future : futures)
    if (future->Wait().ok()) ++succeeded;
  EXPECT_EQ(succeeded, 6);
  EXPECT_GE(manager_->metrics().libraries_deployed, 2u);
}

TEST_P(RuntimeTest, PartialBatchFailureResolvesOnlyFailedFutures) {
  // Fold failing and succeeding invocations into the same dispatch batches:
  // each item must resolve from its own InvocationDoneMsg — a poisoned item
  // fails alone, its batch-mates succeed, and nothing resolves twice.
  StartCluster(1);
  LibraryOptions options;
  options.slots = 4;
  options.exec_mode = ExecMode::kFork;
  options.resources = Resources{4, 1024, 1024};
  auto spec = manager_->CreateLibraryFromFunctions(
      "mixed", {"fail_if"}, "number_setup",
      Value::Dict({{"number", Value(100)}}), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  // Submit the burst before the instance is ready so the queue drains
  // through batched dispatches (slots=4 => batches up to 4).
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 12; ++i) {
    const bool poisoned = i % 3 == 0;
    futures.push_back(manager_->SubmitCall(
        "mixed", "fail_if",
        Value::Dict({{"fail", Value(poisoned)}, {"x", Value(i)}})));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok());

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(futures[static_cast<std::size_t>(i)]->Ready());
    EXPECT_EQ(futures[static_cast<std::size_t>(i)]->resolutions(), 1u);
    auto outcome = futures[static_cast<std::size_t>(i)]->Wait();
    if (i % 3 == 0) {
      EXPECT_FALSE(outcome.ok()) << "poisoned item " << i << " succeeded";
    } else {
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome->value.AsInt(), 100 + i);
    }
  }
  // The burst really exercised the batch path, not 12 single dispatches.
  auto status = manager_->QueryStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status->scheduler.max_batch_size, 2u);
}

TEST_P(RuntimeTest, BatchSurvivesWorkerDeathMidFlight) {
  // Kill the worker while a dispatched batch is executing: every item of
  // the in-flight batch must requeue onto the replacement worker and
  // resolve exactly once.
  StartCluster(1);
  LibraryOptions options;
  options.slots = 4;
  options.exec_mode = ExecMode::kFork;
  options.resources = Resources{4, 1024, 1024};
  auto spec = manager_->CreateLibraryFromFunctions(
      "sleepers", {"slow_with_context"}, "number_setup",
      Value::Dict({{"number", Value(0)}}), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  std::vector<FuturePtr> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(manager_->SubmitCall(
        "sleepers", "slow_with_context", Value::Dict({{"ms", Value(80)}})));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_TRUE(factory_->KillWorker(factory_->WorkerIds()[0]).ok());
  ASSERT_TRUE(factory_->SpawnWorker().ok());
  ASSERT_TRUE(manager_->WaitAll(120.0).ok());

  for (auto& future : futures) {
    ASSERT_TRUE(future->Ready());
    EXPECT_EQ(future->resolutions(), 1u);
    EXPECT_TRUE(future->Wait().ok());
  }
  auto status = manager_->QueryStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status->scheduler.max_batch_size, 2u);
}

TEST_P(RuntimeTest, CacheAffinitySchedulesOntoWarmWorker) {
  // The manager walks the hash ring from the function's hash, so repeated
  // submissions of the same (cached-context) function land where the
  // context already is — as long as that worker has capacity.
  StartCluster(3);
  const Blob data = Blob::FromString(std::string(4096, 'a'));
  storage::FileDecl decl =
      manager_->DeclareBlob("dataset", data, storage::FileKind::kData, true);
  for (int i = 0; i < 6; ++i) {
    auto outcome = manager_
                       ->SubmitTask("read_file",
                                    Value::Dict({{"name", Value("dataset")}}),
                                    {decl}, Resources{1, 64, 64})
                       ->Wait();
    ASSERT_TRUE(outcome.ok());
  }
  // Sequential tasks with ample capacity: one worker runs them all, so the
  // context was transferred to exactly one worker (fn blob + dataset).
  EXPECT_LE(manager_->metrics().manager_transfers, 2u);
  int warm_workers = 0;
  for (WorkerId id : factory_->WorkerIds()) {
    if (factory_->GetWorker(id)->store().Contains(decl.id)) ++warm_workers;
  }
  EXPECT_EQ(warm_workers, 1);
}

TEST_P(RuntimeTest, ChaosMixedWorkloadSurvivesChurn) {
  // Sustained worker churn under a mixed task + invocation stream: every
  // future must resolve (success after retries, or a clean error after
  // max_attempts) — never hang.
  ManagerConfig config;
  config.max_attempts = 10;
  StartCluster(3, config, Resources{4, 8 * 1024, 8 * 1024});
  auto spec = manager_->CreateLibraryFromFunctions(
      "numbers", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(100)}}));
  ASSERT_TRUE(spec.ok());
  spec->resources = Resources{2, 1024, 1024};
  spec->slots = 2;
  spec->exec_mode = ExecMode::kFork;
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  std::vector<FuturePtr> futures;
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 8; ++i) {
      futures.push_back(manager_->SubmitTask(
          "sleepy", Value::Dict({{"ms", Value(15)}}), {},
          Resources{1, 64, 64}));
      futures.push_back(manager_->SubmitCall(
          "numbers", "use_context", Value::Dict({{"x", Value(i)}})));
    }
    // Kill one worker mid-wave and replace it.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto ids = factory_->WorkerIds();
    ASSERT_FALSE(ids.empty());
    ASSERT_TRUE(factory_->KillWorker(ids[static_cast<std::size_t>(wave) %
                                         ids.size()])
                    .ok());
    ASSERT_TRUE(factory_->SpawnWorker().ok());
  }
  ASSERT_TRUE(manager_->WaitAll(180.0).ok());
  int resolved = 0, succeeded = 0;
  for (auto& future : futures) {
    ASSERT_TRUE(future->Ready());
    ++resolved;
    if (future->Wait().ok()) ++succeeded;
  }
  EXPECT_EQ(resolved, 64);
  // With 10 attempts and a replacement worker per kill, the vast majority
  // must succeed (a straggler caught by several consecutive kills may not).
  EXPECT_GE(succeeded, 56);
}

TEST_P(RuntimeTest, WorkerJoinsAfterSubmission) {
  // Submit first, then bring a worker up: work must drain once it joins.
  StartCluster(0);
  auto future = manager_->SubmitTask(
      "add", Value::Dict({{"a", Value(1)}, {"b", Value(2)}}), {},
      Resources{1, 64, 64});
  EXPECT_FALSE(future->Ready());

  ASSERT_TRUE(factory_->SpawnWorker().ok());
  auto outcome = future->Wait();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->value.AsInt(), 3);
}

TEST_P(RuntimeTest, StopCancelsOutstandingWork) {
  StartCluster(1);
  // No worker can run a 64-core task; it stays queued until Stop.
  auto future = manager_->SubmitTask("add", Value::Dict({{"a", Value(1)},
                                                         {"b", Value(1)}}),
                                     {}, Resources{64, 64, 64});
  manager_->Stop();
  auto outcome = future->Wait();
  EXPECT_EQ(outcome.status().code(), ErrorCode::kCancelled);
}

TEST_P(RuntimeTest, WaitForWorkersTimesOut) {
  StartCluster(1);
  EXPECT_EQ(manager_->WaitForWorkers(5, 0.05).code(), ErrorCode::kTimeout);
}

TEST_P(RuntimeTest, InstallLibraryValidatesInputs) {
  StartCluster(1);
  auto spec = manager_->CreateLibraryFromFunctions(
      "numbers", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(0)}}));
  ASSERT_TRUE(spec.ok());
  storage::FileDecl uncached;
  uncached.name = "bad";
  uncached.cache = false;
  spec->inputs.push_back(uncached);
  EXPECT_EQ(manager_->InstallLibrary(*spec).code(),
            ErrorCode::kInvalidArgument);
}

TEST_P(RuntimeTest, CreateLibraryValidates) {
  StartCluster(1);
  EXPECT_FALSE(manager_->CreateLibraryFromFunctions("", {"use_context"}).ok());
  EXPECT_FALSE(manager_->CreateLibraryFromFunctions("lib", {}).ok());
  EXPECT_FALSE(manager_->CreateLibraryFromFunctions("lib", {"ghost_fn"}).ok());
  EXPECT_FALSE(
      manager_->CreateLibraryFromFunctions("lib", {"add"}, "ghost_setup").ok());
}

// ---------------------------------------------------------------------------
// Pass-by-reference data plane.
// ---------------------------------------------------------------------------

// Satellite audit pin: a result blob rides the wire as a borrowed refcounted
// view end to end.  Encode must attach the original payload (no copy) and
// decode must reattach the frame's attachment (no copy).
TEST(WirePayloadTest, InvocationDoneResultSharesWirePayload) {
  InvocationDoneMsg done;
  done.id = 7;
  done.ok = true;
  done.result = Blob::FromString(std::string(4096, 'r'));

  WireFrame wire = EncodeFrame(done);
  EXPECT_TRUE(wire.attachment.SharesPayloadWith(done.result));

  net::Frame frame;
  frame.payload = wire.payload;
  frame.attachment = wire.attachment;
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto* msg = std::get_if<InvocationDoneMsg>(&*decoded);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->id, 7u);
  EXPECT_TRUE(msg->result.SharesPayloadWith(done.result));
}

// Same pin for the peer serve path: a replica holder answering FetchBlob
// forwards its cached refcounted bytes without copying.
TEST(WirePayloadTest, BlobDataPayloadSharesWirePayload) {
  BlobDataMsg data;
  data.tag = 12;
  data.ok = true;
  data.payload = Blob::FromString(std::string(1 << 20, 'p'));
  data.id = hash::ContentId::Of(data.payload);

  WireFrame wire = EncodeFrame(data);
  EXPECT_TRUE(wire.attachment.SharesPayloadWith(data.payload));

  net::Frame frame;
  frame.payload = wire.payload;
  frame.attachment = wire.attachment;
  auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto* msg = std::get_if<BlobDataMsg>(&*decoded);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->tag, 12u);
  EXPECT_TRUE(msg->payload.SharesPayloadWith(data.payload));
}

TEST_P(RuntimeTest, RefResultRoundTripFetchAndRelease) {
  constexpr std::int64_t kBytes = 64 * 1024;
  StartCluster(1, {}, {32, 64 * 1024, 64 * 1024},
               /*ref_results_min_bytes=*/1024);
  auto spec = manager_->CreateLibraryFromFunctions(
      "data", {"make_payload", "payload_probe"});
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  // Producer: a large result comes back as a content-addressed ref, the
  // payload pinned on the producing worker instead of relayed inline.
  auto produced =
      manager_
          ->SubmitCall("data", "make_payload",
                       Value::Dict({{"bytes", Value(kBytes)},
                                    {"fill", Value(1)}}))
          ->Wait();
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  auto ref = TryUnwrapRef(produced->value);
  ASSERT_TRUE(ref.has_value());
  EXPECT_TRUE(ref->valid());
  EXPECT_GE(ref->size, static_cast<std::uint64_t>(kBytes));
  EXPECT_NE(ref->owner, 0u);
  EXPECT_EQ(manager_->metrics().ref_results, 1u);
  EXPECT_GE(manager_->metrics().ref_result_bytes,
            static_cast<std::uint64_t>(kBytes));

  Worker* worker = factory_->GetWorker(factory_->WorkerIds()[0]);
  ASSERT_NE(worker, nullptr);
  EXPECT_TRUE(worker->store().Contains(ref->id));

  // Per-worker data-plane introspection sees the held ref.
  auto status = manager_->QueryStatus();
  ASSERT_TRUE(status.ok());
  std::uint64_t held = 0;
  for (const auto& w : status->workers) held += w.refs_held;
  EXPECT_GE(held, 1u);

  // FetchRef materializes the payload at the application; the manager
  // caches it, so a second fetch returns the same refcounted bytes.
  auto blob1 = manager_->FetchRef(*ref);
  ASSERT_TRUE(blob1.ok()) << blob1.status().ToString();
  EXPECT_EQ(blob1->size(), ref->size);
  auto blob2 = manager_->FetchRef(*ref);
  ASSERT_TRUE(blob2.ok());
  EXPECT_TRUE(blob1->SharesPayloadWith(*blob2));
  auto decoded = serde::Value::FromBlob(*blob1);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->AsString(), std::string(kBytes, 'b'));

  // Consumer: passing the wrapped ref positionally splices the payload back
  // in place before the function runs (local hit — same worker holds it).
  auto probed = manager_
                    ->SubmitCall("data", "payload_probe",
                                 Value::List({produced->value}))
                    ->Wait();
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  EXPECT_EQ(probed->value.AsInt(), kBytes + 'b');

  // Release: once the dispatched consumer settled, GC broadcasts DropBlob
  // and the replica disappears from the worker store.
  ASSERT_TRUE(manager_->ReleaseRef(*ref).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (worker->store().Contains(ref->id) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(worker->store().Contains(ref->id));
  EXPECT_GE(manager_->metrics().refs_dropped, 1u);
}

TEST_P(RuntimeTest, SmallResultsStayInline) {
  StartCluster(1, {}, {32, 64 * 1024, 64 * 1024},
               /*ref_results_min_bytes=*/1 << 20);
  auto spec = manager_->CreateLibraryFromFunctions("data", {"make_payload"});
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  auto produced = manager_
                      ->SubmitCall("data", "make_payload",
                                   Value::Dict({{"bytes", Value(4096)},
                                                {"fill", Value(0)}}))
                      ->Wait();
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  EXPECT_FALSE(TryUnwrapRef(produced->value).has_value());
  EXPECT_EQ(produced->value.AsString(), std::string(4096, 'a'));
  EXPECT_EQ(manager_->metrics().ref_results, 0u);
}

}  // namespace
}  // namespace vinelet::core
