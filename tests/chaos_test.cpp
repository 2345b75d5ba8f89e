// Chaos harness: deterministic fault injection end-to-end.
//
// Three layers of coverage:
//  * injector mechanics — per-link / per-worker decision streams are
//    deterministic and independent of cross-link interleaving, corruption
//    never mutates the sender's blob, the Network honors drop / dup /
//    delay / block verdicts;
//  * seeded regression tests for the fault-path bugs the harness flushed
//    out (dispatch unwind, draining-gauge drift, lost transfer waiters,
//    setup-timing misattribution) — each drives the exact pre-fix code
//    path and asserts through Manager::CheckQuiescent();
//  * a chaos soak across fixed seeds: broadcast + task + library-call
//    waves under duplicates, delays, injected worker-side failures,
//    stragglers and worker churn, asserting that every future resolves
//    exactly once, every scheduler structure drains, gauges match their
//    true values, and every cached blob is intact (content-addressed blobs
//    hash to their id; ref replicas equal their producer's copy).
//
// Soak plans deliberately keep drop_p = corrupt_p = 0: a dropped control
// frame has no ack/retransmit layer below the manager's probe paths, so a
// lost RunTask is *designed* to surface as a hang, not to self-heal.
// Drops, corruption and partitions get targeted tests instead.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "core/blob_ref.hpp"
#include "core/cluster.hpp"
#include "hash/content_id.hpp"
#include "net/fault.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace vinelet::core {
namespace {

using serde::ContextHandle;
using serde::FunctionContext;
using serde::InvocationEnv;
using serde::Value;

// ---------------------------------------------------------------------------
// Injector mechanics (no cluster needed).
// ---------------------------------------------------------------------------

net::FaultPlan NoisyPlan(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.seed = seed;
  plan.link.drop_p = 0.2;
  plan.link.dup_p = 0.2;
  plan.link.corrupt_p = 0.2;
  plan.link.delay_p = 0.2;
  plan.link.delay_min_s = 0.001;
  plan.link.delay_max_s = 0.01;
  return plan;
}

bool SameDecision(const net::SendDecision& a, const net::SendDecision& b) {
  return a.drop == b.drop && a.corrupt == b.corrupt && a.copies == b.copies &&
         a.delay_s == b.delay_s && a.corrupt_bit == b.corrupt_bit;
}

TEST(FaultInjectorTest, LinkStreamsIndependentOfInterleaving) {
  // The k-th message on link (0,1) must get the same verdict whether or
  // not unrelated links send in between — per-link streams, not one
  // global RNG.
  net::FaultInjector interleaved(NoisyPlan(7));
  net::FaultInjector solo(NoisyPlan(7));
  for (int i = 0; i < 64; ++i) {
    const net::SendDecision a = interleaved.OnSend(0, 1);
    // Noise on other links between every probe of the link under test.
    interleaved.OnSend(0, 2);
    interleaved.OnSend(3, 1);
    const net::SendDecision b = solo.OnSend(0, 1);
    EXPECT_TRUE(SameDecision(a, b)) << "diverged at message " << i;
  }
}

TEST(FaultInjectorTest, WorkerHookStreamsIndependentOfInterleaving) {
  net::FaultPlan plan;
  plan.seed = 11;
  plan.worker.setup_failure_p = 0.3;
  plan.worker.invocation_failure_p = 0.3;
  plan.worker.straggler_p = 0.3;
  plan.worker.straggler_delay_s = 1.0;
  net::FaultInjector interleaved(plan);
  net::FaultInjector solo(plan);
  for (int i = 0; i < 64; ++i) {
    const bool a = interleaved.InjectSetupFailure(2);
    // Different workers and different hooks draw from different streams.
    interleaved.InjectSetupFailure(1);
    interleaved.InjectInvocationFailure(2);
    interleaved.StragglerDelayS(2);
    EXPECT_EQ(a, solo.InjectSetupFailure(2)) << "diverged at draw " << i;
  }
}

TEST(FaultInjectorTest, CorruptCopyFlipsExactlyOneBitInACopy) {
  const Blob original = Blob::FromString(std::string(4096, 'x'));
  const Blob corrupted = net::FaultInjector::CorruptCopy(original, 12345);
  // The sender's blob is untouched...
  EXPECT_EQ(original, Blob::FromString(std::string(4096, 'x')));
  ASSERT_EQ(corrupted.size(), original.size());
  // ...and the copy differs in exactly one bit.
  int bits_changed = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(original.data()[i] ^
                                                    corrupted.data()[i]);
    while (diff != 0) {
      bits_changed += diff & 1;
      diff = static_cast<unsigned char>(diff >> 1);
    }
  }
  EXPECT_EQ(bits_changed, 1);
  // Content addressing catches the flip.
  EXPECT_NE(hash::ContentId::Of(corrupted), hash::ContentId::Of(original));
}

TEST(FaultInjectorTest, NetworkDropsAreSilentToSender) {
  auto network = std::make_shared<net::Network>();
  net::FaultPlan plan;
  plan.seed = 3;
  plan.link.drop_p = 1.0;
  auto fault = std::make_shared<net::FaultInjector>(plan);
  network->SetFaultInjector(fault);
  auto inbox = network->Register(1);
  ASSERT_TRUE(inbox.ok());
  // The sender sees success; the frame never arrives.
  EXPECT_TRUE(network->Send(0, 1, Blob::FromString("doomed")).ok());
  EXPECT_FALSE(
      (*inbox)->RecvFor(std::chrono::milliseconds(100)).has_value());
  EXPECT_EQ(network->frames_delivered(), 0u);
  EXPECT_GE(fault->stats().dropped, 1u);
}

TEST(FaultInjectorTest, NetworkDuplicatesFrames) {
  auto network = std::make_shared<net::Network>();
  net::FaultPlan plan;
  plan.seed = 3;
  plan.link.dup_p = 1.0;
  auto fault = std::make_shared<net::FaultInjector>(plan);
  network->SetFaultInjector(fault);
  auto inbox = network->Register(1);
  ASSERT_TRUE(inbox.ok());
  ASSERT_TRUE(network->Send(0, 1, Blob::FromString("twice")).ok());
  auto first = (*inbox)->RecvFor(std::chrono::seconds(5));
  auto second = (*inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->payload, second->payload);
  EXPECT_EQ(fault->stats().duplicated, 1u);
}

TEST(FaultInjectorTest, NetworkDelayHoldsFrameBack) {
  auto network = std::make_shared<net::Network>();
  net::FaultPlan plan;
  plan.seed = 3;
  plan.link.delay_p = 1.0;
  plan.link.delay_min_s = 0.05;
  plan.link.delay_max_s = 0.05;
  auto fault = std::make_shared<net::FaultInjector>(plan);
  network->SetFaultInjector(fault);
  auto inbox = network->Register(1);
  ASSERT_TRUE(inbox.ok());
  const auto sent_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(network->Send(0, 1, Blob::FromString("late")).ok());
  // Not there immediately...
  EXPECT_FALSE((*inbox)->TryRecv().has_value());
  // ...but it arrives once the hold expires.
  auto frame = (*inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(frame.has_value());
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sent_at)
          .count();
  EXPECT_GE(elapsed_s, 0.05);
  EXPECT_EQ(fault->stats().delayed, 1u);
}

TEST(FaultInjectorTest, BlockedLinkIsSilenceUntilHealed) {
  auto network = std::make_shared<net::Network>();
  auto fault = std::make_shared<net::FaultInjector>(net::FaultPlan{});
  network->SetFaultInjector(fault);
  auto inbox = network->Register(1);
  ASSERT_TRUE(inbox.ok());

  fault->BlockLink(0, 1, true);
  EXPECT_TRUE(fault->LinkBlocked(0, 1));
  EXPECT_FALSE(fault->LinkBlocked(1, 0));  // directional
  EXPECT_TRUE(network->Send(0, 1, Blob::FromString("void")).ok());
  EXPECT_FALSE(
      (*inbox)->RecvFor(std::chrono::milliseconds(100)).has_value());
  EXPECT_GE(fault->stats().blocked, 1u);

  fault->BlockLink(0, 1, false);
  ASSERT_TRUE(network->Send(0, 1, Blob::FromString("healed")).ok());
  auto frame = (*inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, Blob::FromString("healed"));

  // Partition blocks both directions at once.
  fault->Partition(2, 3, true);
  EXPECT_TRUE(fault->LinkBlocked(2, 3));
  EXPECT_TRUE(fault->LinkBlocked(3, 2));
  fault->Partition(2, 3, false);
  EXPECT_FALSE(fault->LinkBlocked(2, 3));
}

TEST(FaultInjectorTest, TaskDoneTimingSurvivesWireRoundTrip) {
  // Regression for the deserialize_s split: all five breakdown fields must
  // travel through the frame codec, not just the original four.
  TaskDoneMsg done;
  done.id = 42;
  done.ok = true;
  done.timing.transfer_s = 1.0;
  done.timing.worker_s = 2.0;
  done.timing.deserialize_s = 3.0;
  done.timing.context_s = 4.0;
  done.timing.exec_s = 5.0;
  const WireFrame wire = EncodeFrame(done);
  auto decoded = DecodeFrame(net::Frame{7, wire.payload, wire.attachment});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* round = std::get_if<TaskDoneMsg>(&*decoded);
  ASSERT_NE(round, nullptr);
  EXPECT_DOUBLE_EQ(round->timing.transfer_s, 1.0);
  EXPECT_DOUBLE_EQ(round->timing.worker_s, 2.0);
  EXPECT_DOUBLE_EQ(round->timing.deserialize_s, 3.0);
  EXPECT_DOUBLE_EQ(round->timing.context_s, 4.0);
  EXPECT_DOUBLE_EQ(round->timing.exec_s, 5.0);
  EXPECT_DOUBLE_EQ(round->timing.Total(), 15.0);
}

// ---------------------------------------------------------------------------
// Cluster harness.
// ---------------------------------------------------------------------------

/// Context retained by the test library (mirrors runtime_test).
class NumberContext final : public FunctionContext {
 public:
  explicit NumberContext(std::int64_t number) : number_(number) {}
  std::int64_t number() const noexcept { return number_; }
  std::uint64_t MemoryBytes() const override { return sizeof(*this); }

 private:
  std::int64_t number_;
};

class ChaosTest : public ::testing::Test {
 protected:
  void StartCluster(std::size_t workers, net::FaultPlan plan = {},
                    ManagerConfig manager_config = {},
                    Resources worker_resources = {32, 64 * 1024, 64 * 1024},
                    std::uint64_t ref_results_min_bytes = 0) {
    RegisterTestFunctions();
    auto network = std::make_shared<net::Network>();
    fault_ = std::make_shared<net::FaultInjector>(plan);
    network->SetFaultInjector(fault_);
    manager_config.registry = registry_.get();
    FactoryConfig factory_config;
    factory_config.initial_workers = workers;
    factory_config.worker_resources = worker_resources;
    factory_config.fault = fault_;
    factory_config.ref_results_min_bytes = ref_results_min_bytes;
    cluster_ = std::make_unique<Cluster>(network, manager_config,
                                         factory_config);
    manager_ = &cluster_->manager();
    factory_ = &cluster_->factory();
    // Injected faults land in the manager's always-on flight journal.
    fault_->SetFlightRecorder(&manager_->telemetry().flight);
    ASSERT_TRUE(cluster_->Start().ok());
  }

  void TearDown() override { StopCluster(); }

  /// Tears the cluster down; a test may start a fresh one afterwards.
  void StopCluster() {
    // Detach the journal before the manager (its owner) goes away.
    if (fault_) fault_->SetFlightRecorder(nullptr);
    cluster_.reset();
    manager_ = nullptr;
    factory_ = nullptr;
    fault_.reset();
  }

  /// Polls CheckQuiescent until the cluster settles (transitional instance
  /// states count as violations) and returns the final report.
  QuiescenceReport WaitQuiescent(double timeout_s = 15.0) {
    QuiescenceReport report;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_s));
    while (true) {
      auto result = manager_->CheckQuiescent(5.0);
      if (result.ok()) {
        report = std::move(*result);
        if (report.quiescent) return report;
      }
      if (std::chrono::steady_clock::now() >= deadline) return report;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// Every blob every worker retained must still be intact — injected
  /// corruption/duplication must never reach a cache unverified.  A content
  /// id must still hash to its bytes.  An assigned (ref result) id names its
  /// producer, not its bytes, so every replica must be byte-identical to
  /// the producer's copy — or, once the producer is gone, to each other.
  void VerifyWorkerStores() {
    std::map<hash::ContentId, std::vector<std::pair<WorkerId, Blob>>> refs;
    for (WorkerId id : factory_->WorkerIds()) {
      Worker* worker = factory_->GetWorker(id);
      ASSERT_NE(worker, nullptr);
      for (const auto& entry : worker->store().List()) {
        auto blob = worker->store().Get(entry.id);
        ASSERT_TRUE(blob.ok())
            << "worker " << id << " lost a listed blob: "
            << blob.status().ToString();
        if (entry.id.IsAssigned()) {
          refs[entry.id].emplace_back(id, std::move(*blob));
          continue;
        }
        EXPECT_EQ(hash::ContentId::Of(*blob), entry.id)
            << "worker " << id << " retains a corrupted blob";
      }
    }
    for (const auto& [ref_id, copies] : refs) {
      const Blob* reference = &copies.front().second;
      for (const auto& [holder, blob] : copies)
        if (holder == ref_id.AssignedProducer()) reference = &blob;
      for (const auto& [holder, blob] : copies)
        EXPECT_EQ(blob, *reference)
            << "worker " << holder << " holds a replica of ref "
            << ref_id.ShortHex() << " that differs from the reference copy";
    }
  }

  storage::FileDecl GhostDecl(bool cache) {
    storage::FileDecl ghost;
    ghost.name = "ghost";
    ghost.id = hash::ContentId::OfText("never stored anywhere");
    ghost.size = 10;
    ghost.cache = cache;
    return ghost;
  }

  void RegisterTestFunctions() {
    // A fresh registry per cluster: the soak starts one cluster per seed.
    registry_ = std::make_unique<serde::FunctionRegistry>();
    serde::FunctionDef add;
    add.name = "add";
    add.fn = [](const Value& args, const InvocationEnv&) -> Result<Value> {
      auto a = args.GetInt("a");
      if (!a.ok()) return a.status();
      auto b = args.GetInt("b");
      if (!b.ok()) return b.status();
      return Value(*a + *b);
    };
    ASSERT_TRUE(registry_->RegisterFunction(add).ok());

    serde::FunctionDef read_file;
    read_file.name = "read_file";
    read_file.fn = [](const Value& args,
                      const InvocationEnv& env) -> Result<Value> {
      auto name = args.GetString("name");
      if (!name.ok()) return name.status();
      if (!env.HasFile(*name)) return NotFoundError("missing: " + *name);
      return Value(static_cast<std::int64_t>(env.File(*name).size()));
    };
    ASSERT_TRUE(registry_->RegisterFunction(read_file).ok());

    serde::FunctionDef sleepy;
    sleepy.name = "sleepy";
    sleepy.fn = [](const Value& args, const InvocationEnv&) -> Result<Value> {
      auto ms = args.GetInt("ms");
      if (!ms.ok()) return ms.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
      return Value(true);
    };
    ASSERT_TRUE(registry_->RegisterFunction(sleepy).ok());

    serde::FunctionDef slow_ctx;
    slow_ctx.name = "slow_with_context";
    slow_ctx.setup_name = "number_setup";
    slow_ctx.fn = [](const Value& args,
                     const InvocationEnv& env) -> Result<Value> {
      auto ms = args.GetInt("ms");
      if (!ms.ok()) return ms.status();
      std::this_thread::sleep_for(std::chrono::milliseconds(*ms));
      const auto* ctx = dynamic_cast<const NumberContext*>(env.context);
      return Value(*ms + (ctx != nullptr ? ctx->number() : 0));
    };
    ASSERT_TRUE(registry_->RegisterFunction(slow_ctx).ok());

    serde::ContextSetupDef setup;
    setup.name = "number_setup";
    setup.fn = [](const Value& args,
                  const InvocationEnv&) -> Result<ContextHandle> {
      return ContextHandle(
          std::make_shared<NumberContext>(args.Get("number").AsInt()));
    };
    ASSERT_TRUE(registry_->RegisterSetup(setup).ok());

    serde::FunctionDef make_payload;
    make_payload.name = "make_payload";
    make_payload.setup_name = "number_setup";
    make_payload.fn = [](const Value& args,
                         const InvocationEnv&) -> Result<Value> {
      auto bytes = args.GetInt("bytes");
      if (!bytes.ok()) return bytes.status();
      auto fill = args.GetInt("fill");
      if (!fill.ok()) return fill.status();
      return Value(std::string(static_cast<std::size_t>(*bytes),
                               static_cast<char>('a' + *fill % 23)));
    };
    ASSERT_TRUE(registry_->RegisterFunction(make_payload).ok());

    // Consumer of a pass-by-reference result: positional args
    // [payload, sleep_ms], the shape the ref splice operates on.
    serde::FunctionDef probe_payload;
    probe_payload.name = "probe_payload";
    probe_payload.setup_name = "number_setup";
    probe_payload.fn = [](const Value& args,
                          const InvocationEnv&) -> Result<Value> {
      if (args.type() != Value::Type::kList || args.AsList().size() < 2)
        return InvalidArgumentError("probe_payload expects [payload, ms]");
      const Value& payload = args.AsList()[0];
      if (payload.type() != Value::Type::kString)
        return InvalidArgumentError("ref payload was not materialized");
      const std::int64_t ms = args.AsList()[1].AsInt();
      if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      return Value(static_cast<std::int64_t>(payload.AsString().size()) +
                   payload.AsString()[0]);
    };
    ASSERT_TRUE(registry_->RegisterFunction(probe_payload).ok());

    // Consumer that reads every byte: the sum of a materialized ref
    // payload, which any flipped bit would change.
    serde::FunctionDef sum_payload;
    sum_payload.name = "sum_payload";
    sum_payload.setup_name = "number_setup";
    sum_payload.fn = [](const Value& args,
                        const InvocationEnv&) -> Result<Value> {
      if (args.type() != Value::Type::kList || args.AsList().empty() ||
          args.AsList()[0].type() != Value::Type::kString)
        return InvalidArgumentError("sum_payload expects [payload]");
      std::int64_t sum = 0;
      for (char c : args.AsList()[0].AsString())
        sum += static_cast<unsigned char>(c);
      return Value(sum);
    };
    ASSERT_TRUE(registry_->RegisterFunction(sum_payload).ok());

    serde::FunctionDef use_context;
    use_context.name = "use_context";
    use_context.setup_name = "number_setup";
    use_context.fn = [](const Value& args,
                        const InvocationEnv& env) -> Result<Value> {
      auto x = args.GetInt("x");
      if (!x.ok()) return x.status();
      const auto* ctx = dynamic_cast<const NumberContext*>(env.context);
      return Value(*x + (ctx != nullptr ? ctx->number() : 0));
    };
    ASSERT_TRUE(registry_->RegisterFunction(use_context).ok());
  }

  std::unique_ptr<serde::FunctionRegistry> registry_;
  std::shared_ptr<net::FaultInjector> fault_;
  std::unique_ptr<Cluster> cluster_;
  Manager* manager_ = nullptr;
  Factory* factory_ = nullptr;
};

// ---------------------------------------------------------------------------
// Regression tests for the fault-path fixes (seeded, deterministic).
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, DispatchFailureUnwindsTask) {
  // An inline (cache=false) input whose payload was never stored makes
  // DispatchTask fail after the task was placed.  Pre-fix the task stayed
  // in the manager's task table and the worker's set, so the later
  // worker-death sweep re-resolved the already-failed future and corrupted
  // the claim ledger.
  StartCluster(1);
  auto future = manager_->SubmitTask(
      "read_file", Value::Dict({{"name", Value("ghost")}}),
      {GhostDecl(/*cache=*/false)}, Resources{1, 64, 64});
  auto outcome = future->Wait();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(future->resolutions(), 1u);

  // The unwind must leave the worker usable and the ledger consistent:
  // kill it (pre-fix: double-resolve fires here), replace it, run again.
  ASSERT_TRUE(factory_->KillWorker(factory_->WorkerIds()[0]).ok());
  ASSERT_TRUE(factory_->SpawnWorker().ok());
  auto ok_future = manager_->SubmitTask(
      "add", Value::Dict({{"a", Value(20)}, {"b", Value(22)}}), {},
      Resources{1, 64, 64});
  auto ok_outcome = ok_future->Wait();
  ASSERT_TRUE(ok_outcome.ok()) << ok_outcome.status().ToString();
  EXPECT_EQ(ok_outcome->value.AsInt(), 42);
  EXPECT_EQ(future->resolutions(), 1u);  // still exactly once

  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
}

TEST_F(ChaosTest, MissingCachedInputFailsAllWaiters) {
  // A cached input whose payload the manager never stored: pre-fix,
  // StageFile registered a waiter on a transfer that could never start, so
  // every task waiting on it hung forever (WaitAll timed out).
  StartCluster(1);
  auto first = manager_->SubmitTask(
      "read_file", Value::Dict({{"name", Value("ghost")}}),
      {GhostDecl(/*cache=*/true)}, Resources{1, 64, 64});
  auto second = manager_->SubmitTask(
      "read_file", Value::Dict({{"name", Value("ghost")}}),
      {GhostDecl(/*cache=*/true)}, Resources{1, 64, 64});
  ASSERT_TRUE(manager_->WaitAll(30.0).ok()) << "waiters lost: WaitAll hung";
  EXPECT_FALSE(first->Wait().ok());
  EXPECT_FALSE(second->Wait().ok());
  EXPECT_EQ(first->resolutions(), 1u);
  EXPECT_EQ(second->resolutions(), 1u);

  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
}

TEST_F(ChaosTest, DrainingLibraryGaugesSurviveWorkerDeath) {
  // Wedge an instance in kDraining by blocking the worker->manager link
  // (the LibraryRemovedMsg never arrives), then kill the worker.  Pre-fix
  // OnWorkerDead skipped draining instances when rolling back the
  // libraries_active / retained_context_bytes gauges, so they drifted up
  // forever — CheckQuiescent catches the mismatch.
  StartCluster(1);
  auto spec_a = manager_->CreateLibraryFromFunctions(
      "lib_a", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(1)}}));
  ASSERT_TRUE(spec_a.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec_a).ok());
  ASSERT_TRUE(manager_
                  ->SubmitCall("lib_a", "use_context",
                               Value::Dict({{"x", Value(0)}}))
                  ->Wait()
                  .ok());

  // Silence the worker's replies, then starve lib_a out: the eviction
  // starts (manager-side counter ticks) but can never complete.
  fault_->BlockLink(1, net::kManagerEndpoint, true);
  auto spec_b = manager_->CreateLibraryFromFunctions(
      "lib_b", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(2)}}));
  ASSERT_TRUE(spec_b.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec_b).ok());
  auto future = manager_->SubmitCall("lib_b", "use_context",
                                     Value::Dict({{"x", Value(40)}}));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (manager_->metrics().libraries_evicted < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(manager_->metrics().libraries_evicted, 1u)
      << "eviction never started";

  // Kill the worker while lib_a is wedged mid-drain.
  ASSERT_TRUE(factory_->KillWorker(1).ok());
  fault_->BlockLink(1, net::kManagerEndpoint, false);
  ASSERT_TRUE(factory_->SpawnWorker().ok());

  auto outcome = future->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->value.AsInt(), 42);

  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
  // Only lib_b's replacement instance survives; the draining instance's
  // share of both gauges was released with the dead worker.
  EXPECT_EQ(manager_->metrics().libraries_active, 1u);
  EXPECT_EQ(manager_->metrics().retained_context_bytes,
            sizeof(NumberContext));
}

TEST_F(ChaosTest, AffinityIndexForgetsDeadWorker) {
  // The affinity index must drop a dead worker's entries the moment the
  // death sweep runs: a stale (library -> dead worker) pair would keep
  // routing popular arrivals at a corpse, and the CheckQuiescent affinity
  // audit — which recomputes the table from the instance map — flags it.
  // Spread one whole-worker instance per worker with a slow call burst,
  // kill a worker the affinity set names, and require a clean settle.
  StartCluster(3);
  auto spec = manager_->CreateLibraryFromFunctions(
      "sticky", {"slow_with_context"}, "number_setup",
      Value::Dict({{"number", Value(40)}}));
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  // Enough backlog that the autoscaler recruits every worker while the
  // first instance is still grinding through its queue.
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 24; ++i) {
    futures.push_back(manager_->SubmitCall(
        "sticky", "slow_with_context", Value::Dict({{"ms", Value(60)}})));
  }

  // Wait until the affinity set spans at least two workers, then kill one
  // of the workers it names.
  WorkerId victim = 0;
  bool spread = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!spread && std::chrono::steady_clock::now() < deadline) {
    auto status = manager_->QueryStatus();
    if (status.ok()) {
      for (const auto& set : status->scheduler.affinity_sets) {
        if (set.library == "sticky" && set.workers.size() >= 2) {
          victim = set.workers.back();
          spread = true;
          break;
        }
      }
    }
    if (!spread) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(spread) << "library never spread across workers";
  ASSERT_TRUE(factory_->KillWorker(victim).ok());
  ASSERT_TRUE(factory_->SpawnWorker().ok());

  ASSERT_TRUE(manager_->WaitAll(60.0).ok()) << "a future never resolved";
  for (const auto& future : futures) {
    ASSERT_TRUE(future->Ready());
    EXPECT_EQ(future->resolutions(), 1u);
    auto outcome = future->Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->value.AsInt(), 100);
  }

  // The audit recomputes the affinity table from the instance map; a
  // leftover entry for the dead worker shows up as a violation.
  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
  EXPECT_EQ(report.affinity_entries, report.affinity_warm_gauge);
  auto status = manager_->QueryStatus();
  ASSERT_TRUE(status.ok());
  for (const auto& set : status->scheduler.affinity_sets) {
    for (WorkerId worker : set.workers)
      EXPECT_NE(worker, victim) << "stale affinity entry for dead worker";
  }
}

TEST_F(ChaosTest, LibrarySetupSeparatesDeserializeFromContext) {
  // Pre-fix, LibraryRuntime::Setup charged function-blob deserialization
  // to context_s.  With an 8 MB function blob and a trivial context, the
  // deserialize share must dominate — and be reported in its own field.
  StartCluster(1);
  LibraryOptions options;
  options.function_code_size = 8 * 1024 * 1024;
  auto spec = manager_->CreateLibraryFromFunctions(
      "big", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(0)}}), nullptr, options);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  auto outcome =
      manager_->SubmitCall("big", "use_context", Value::Dict({{"x", Value(1)}}))
          ->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  const TimingBreakdown setup = manager_->metrics().last_library_setup;
  EXPECT_GT(setup.deserialize_s, 0.0);
  // Hashing 8 MB dwarfs constructing one NumberContext; pre-fix the hash
  // time landed in context_s and this inverts.
  EXPECT_LT(setup.context_s, setup.deserialize_s);
  EXPECT_GE(setup.worker_s, 0.0);
}

TEST_F(ChaosTest, LibrarySetupFailuresRetryUntilReady) {
  // Injected setup failures surface as install-then-removed; the manager
  // must release the instance and redeploy until the seeded stream lets
  // one through.
  net::FaultPlan plan;
  plan.seed = 17;
  plan.worker.setup_failure_p = 0.5;
  StartCluster(1, plan);
  auto spec = manager_->CreateLibraryFromFunctions(
      "flaky", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(5)}}));
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  auto outcome = manager_
                     ->SubmitCall("flaky", "use_context",
                                  Value::Dict({{"x", Value(2)}}))
                     ->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->value.AsInt(), 7);

  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
}

TEST_F(ChaosTest, DuplicatedFramesDoNotDoubleCount) {
  // Deliver every frame twice (dup_p = 1).  Pre-fix, the redelivered
  // LibraryReadyMsg found the instance already kReady and re-counted the
  // deployment, double-adding libraries_active and retained_context_bytes —
  // the drift the chaos soak flushed out at seed 2.
  net::FaultPlan plan;
  plan.seed = 5;
  plan.link.dup_p = 1.0;
  StartCluster(1, plan);
  auto spec = manager_->CreateLibraryFromFunctions(
      "dup", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(40)}}));
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  auto outcome = manager_
                     ->SubmitCall("dup", "use_context",
                                  Value::Dict({{"x", Value(2)}}))
                     ->Wait();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->value.AsInt(), 42);
  EXPECT_EQ(manager_->metrics().libraries_deployed, 1u);

  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
  EXPECT_EQ(manager_->metrics().libraries_active, 1u);
  EXPECT_EQ(manager_->metrics().retained_context_bytes,
            sizeof(NumberContext));
}

TEST_F(ChaosTest, RemovalOfAReadyInstanceLeavesGaugesExact) {
  // A LibraryRemovedMsg can reach the manager for an instance it still holds
  // as ready (the chaos soak met one at seed 4 under ASan/UBSan timing).
  // The removal must take the instance out of libraries_active like any
  // other, or the gauge stays one too high for good.
  StartCluster(1);
  auto spec = manager_->CreateLibraryFromFunctions(
      "dropped", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(40)}}));
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  ASSERT_TRUE(manager_
                  ->SubmitCall("dropped", "use_context",
                               Value::Dict({{"x", Value(2)}}))
                  ->Wait()
                  .ok());
  ASSERT_EQ(manager_->metrics().libraries_active, 1u);

  // The only instance deployed so far has id 1.
  WireFrame wire = EncodeFrame(LibraryRemovedMsg{1});
  ASSERT_TRUE(cluster_->transport()
                  .Send(factory_->WorkerIds().front(), net::kManagerEndpoint,
                        std::move(wire.payload), std::move(wire.attachment))
                  .ok());
  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
  EXPECT_EQ(report.instances, 0u);
  EXPECT_EQ(manager_->metrics().libraries_active, 0u);
}

TEST_F(ChaosTest, DuplicatedBatchFramesResolveEachItemOnce) {
  // Deliver every frame twice (dup_p = 1): the batched dispatch arrives
  // twice at the worker and every per-item InvocationDoneMsg arrives twice
  // at the manager.  Each future must still resolve exactly once with its
  // own result — batching must not widen the duplicate-delivery surface.
  net::FaultPlan plan;
  plan.seed = 13;
  plan.link.dup_p = 1.0;
  StartCluster(1, plan);
  LibraryOptions options;
  options.slots = 4;
  options.exec_mode = ExecMode::kFork;
  options.resources = Resources{4, 1024, 1024};
  auto spec = manager_->CreateLibraryFromFunctions(
      "batched", {"use_context"}, "number_setup",
      Value::Dict({{"number", Value(100)}}), nullptr, options);
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  // Burst before the instance readies so the queue drains in batches.
  std::vector<FuturePtr> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(manager_->SubmitCall("batched", "use_context",
                                           Value::Dict({{"x", Value(i)}})));
  }
  ASSERT_TRUE(manager_->WaitAll(60.0).ok()) << "a future never resolved";
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(futures[static_cast<std::size_t>(i)]->Ready());
    EXPECT_EQ(futures[static_cast<std::size_t>(i)]->resolutions(), 1u);
    auto outcome = futures[static_cast<std::size_t>(i)]->Wait();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->value.AsInt(), 100 + i);
  }
  auto status = manager_->QueryStatus();
  ASSERT_TRUE(status.ok());
  EXPECT_GE(status->scheduler.max_batch_size, 2u);

  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
}

// ---------------------------------------------------------------------------
// Pass-by-reference data plane under churn: seeded soak legs that kill the
// replica-owning worker while consumers are fetching.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, RefDataPlaneSoakSurvivesReplicaOwnerKills) {
  for (std::uint64_t seed = 21; seed <= 23; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    net::FaultPlan plan;
    plan.seed = seed;
    plan.link.dup_p = 0.02;
    plan.link.delay_p = 0.05;
    plan.link.delay_min_s = 0.0005;
    plan.link.delay_max_s = 0.005;
    StartCluster(3, plan, {}, Resources{32, 64 * 1024, 64 * 1024},
                 /*ref_results_min_bytes=*/64 * 1024);

    // Whole-worker instances: the autoscaler must recruit a second worker
    // to absorb the consumer backlog, which is what replicates the payload
    // off its producer via peer fetches.
    LibraryOptions options;
    options.slots = 2;
    options.resources = Resources{32, 1024, 1024};
    auto spec = manager_->CreateLibraryFromFunctions(
        "data", {"make_payload", "probe_payload"}, "number_setup",
        Value::Dict({{"number", Value(0)}}), nullptr, options);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

    // Producer: a 256 KB result over the 64 KB threshold must come back as
    // a content-addressed ref, not inline bytes.
    const std::int64_t kBytes = 256 * 1024;
    auto producer = manager_->SubmitCall(
        "data", "make_payload",
        Value::Dict({{"bytes", Value(kBytes)}, {"fill", Value(1)}}));
    auto produced = producer->Wait();
    ASSERT_TRUE(produced.ok()) << produced.status().ToString();
    const auto ref = TryUnwrapRef(produced->value);
    ASSERT_TRUE(ref.has_value()) << "large result did not ship by reference";
    EXPECT_GE(ref->size, static_cast<std::uint64_t>(kBytes));
    const WorkerId owner = ref->owner;
    EXPECT_NE(owner, 0u);
    const std::int64_t expected = kBytes + 'b';

    // Wave 1: a slow consumer backlog.  Some consumers land off the owner,
    // fetch the payload peer-to-peer, and become replicas themselves.
    std::vector<FuturePtr> wave1;
    for (int i = 0; i < 24; ++i) {
      wave1.push_back(manager_->SubmitCall(
          "data", "probe_payload",
          Value::List({produced->value, Value(60)})));
    }
    ASSERT_TRUE(manager_->WaitAll(120.0).ok()) << "wave-1 consumer stuck";
    for (const auto& future : wave1) {
      auto outcome = future->Wait();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome->value.AsInt(), expected);
    }

    // The payload must now live on at least two workers (the FileReady
    // announcements land asynchronously, so poll).
    const auto holders = [&] {
      std::set<WorkerId> out;
      auto status = manager_->QueryStatus();
      if (status.ok()) {
        for (const auto& worker : status->workers)
          for (const auto& entry : worker.cache)
            if (entry.id == ref->id) out.insert(worker.id);
      }
      return out;
    };
    const auto spread_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (holders().size() < 2 &&
           std::chrono::steady_clock::now() < spread_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_GE(holders().size(), 2u) << "payload never replicated off owner";

    // Every replica made so far matches the producer's copy byte for byte.
    VerifyWorkerStores();

    // Data-plane introspection counters saw the traffic.
    {
      auto status = manager_->QueryStatus();
      ASSERT_TRUE(status.ok());
      std::uint64_t fetched = 0, served = 0, held = 0;
      for (const auto& worker : status->workers) {
        fetched += worker.p2p_fetch_bytes;
        served += worker.p2p_serve_bytes;
        held += worker.refs_held;
      }
      EXPECT_GT(fetched, 0u);
      EXPECT_GT(served, 0u);
      EXPECT_GT(held, 0u);
    }

    // Wave 2: kill the producing owner while consumers are mid-fetch.  The
    // survivors must refetch from the next live replica — no stuck WaitAll,
    // every future resolves exactly once with the right answer.
    std::vector<FuturePtr> wave2;
    for (int i = 0; i < 8; ++i) {
      wave2.push_back(manager_->SubmitCall(
          "data", "probe_payload",
          Value::List({produced->value, Value(5)})));
    }
    ASSERT_TRUE(factory_->KillWorker(owner).ok());
    ASSERT_TRUE(factory_->SpawnWorker().ok());
    ASSERT_TRUE(manager_->WaitAll(120.0).ok())
        << "WaitAll stuck after replica-owner death";
    for (const auto& future : wave2) {
      ASSERT_TRUE(future->Ready());
      EXPECT_EQ(future->resolutions(), 1u);
      auto outcome = future->Wait();
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome->value.AsInt(), expected);
    }

    // Release the app's claim: the manager garbage-collects the replicas
    // and the quiescence audit (ref counts vs replica table) comes back
    // clean with nothing tracked.
    ASSERT_TRUE(manager_->ReleaseRef(*ref).ok());
    const QuiescenceReport report = WaitQuiescent(30.0);
    EXPECT_TRUE(report.quiescent) << report.ToString();
    EXPECT_EQ(report.refs_tracked, 0u);
    VerifyWorkerStores();

    StopCluster();
  }
}

TEST_F(ChaosTest, DamagedRefFetchIsRetriedAndReturnsTheExactResult) {
  // Seeded regression for the one frame that heals itself: a ref payload
  // whose attachment is damaged on the way to a consumer.  The consumer's
  // frame CRC turns it into a miss, the parked call fails its fetch, the
  // manager retries it, and the retry fetches an intact copy.
  StartCluster(2, {}, {}, Resources{32, 64 * 1024, 64 * 1024},
               /*ref_results_min_bytes=*/64 * 1024);
  // Whole-worker instances: the consumer library cannot share the
  // producer's worker, so its calls must fetch the payload from a peer.
  LibraryOptions options;
  options.resources = Resources{32, 1024, 1024};
  for (const auto& [library, function] :
       {std::pair{"producer", "make_payload"},
        std::pair{"consumer", "sum_payload"}}) {
    auto spec = manager_->CreateLibraryFromFunctions(
        library, {function}, "number_setup",
        Value::Dict({{"number", Value(0)}}), nullptr, options);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());
  }

  const std::int64_t kBytes = 256 * 1024;
  auto produced = manager_
                      ->SubmitCall("producer", "make_payload",
                                   Value::Dict({{"bytes", Value(kBytes)},
                                                {"fill", Value(3)}}))
                      ->Wait();
  ASSERT_TRUE(produced.ok()) << produced.status().ToString();
  const auto ref = TryUnwrapRef(produced->value);
  ASSERT_TRUE(ref.has_value()) << "large result did not ship by reference";
  EXPECT_TRUE(ref->id.IsAssigned());
  EXPECT_EQ(ref->id.AssignedProducer(), ref->owner);
  const auto ids = factory_->WorkerIds();
  ASSERT_EQ(ids.size(), 2u);
  const WorkerId consumer = ids[0] == ref->owner ? ids[1] : ids[0];

  // The next frame from the owner to the consumer is the BlobData reply.
  fault_->CorruptNext(ref->owner, consumer, 1);
  auto summed = manager_
                    ->SubmitCall("consumer", "sum_payload",
                                 Value::List({produced->value}))
                    ->Wait();
  ASSERT_TRUE(summed.ok()) << summed.status().ToString();
  EXPECT_EQ(summed->worker, consumer);
  EXPECT_EQ(summed->value.AsInt(), kBytes * ('a' + 3));
  EXPECT_EQ(fault_->stats().corrupted, 1u);
  EXPECT_GE(
      manager_->telemetry().metrics.GetCounter("manager.retries").Value(), 1u);

  VerifyWorkerStores();
  ASSERT_TRUE(manager_->ReleaseRef(*ref).ok());
  const QuiescenceReport report = WaitQuiescent();
  EXPECT_TRUE(report.quiescent) << report.ToString();
}

// ---------------------------------------------------------------------------
// Chaos soak: fixed seeds, mixed workload, churn during broadcast and drain.
// ---------------------------------------------------------------------------

TEST_F(ChaosTest, ChaosSoakDrainsCleanAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));

    net::FaultPlan plan;
    plan.seed = seed;
    plan.link.dup_p = 0.02;
    plan.link.delay_p = 0.05;
    plan.link.delay_min_s = 0.0005;
    plan.link.delay_max_s = 0.005;
    plan.worker.setup_failure_p = 0.05;
    plan.worker.invocation_failure_p = 0.02;
    plan.worker.task_failure_p = 0.02;
    plan.worker.straggler_p = 0.05;
    plan.worker.straggler_delay_s = 0.02;

    ManagerConfig config;
    config.max_attempts = 10;
    config.broadcast_probe_s = 0.1;
    StartCluster(3, plan, config, Resources{4, 8 * 1024, 8 * 1024});

    // Phase 1: churn during an active chunked broadcast.
    std::string text(1 << 20, '\0');
    for (std::size_t i = 0; i < text.size(); ++i)
      text[i] = static_cast<char>('a' + (i * 31 + seed) % 23);
    const Blob data = Blob::FromString(std::move(text));
    storage::FileDecl decl =
        manager_->DeclareBlob("model", data, storage::FileKind::kData, true);
    auto broadcast = manager_->BroadcastFile(decl, /*chunk_bytes=*/32 * 1024,
                                             /*fanout_cap=*/2);
    ASSERT_TRUE(factory_->KillWorker(factory_->WorkerIds()[0]).ok());
    ASSERT_TRUE(factory_->SpawnWorker().ok());
    ASSERT_TRUE(broadcast->Wait().ok());

    // Phase 2: mixed task + invocation waves with a kill per wave.
    auto spec = manager_->CreateLibraryFromFunctions(
        "numbers", {"use_context"}, "number_setup",
        Value::Dict({{"number", Value(100)}}));
    ASSERT_TRUE(spec.ok());
    spec->resources = Resources{2, 1024, 1024};
    spec->slots = 2;
    spec->exec_mode = ExecMode::kFork;
    ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

    std::vector<FuturePtr> futures;
    futures.push_back(std::move(broadcast));
    for (int wave = 0; wave < 2; ++wave) {
      for (int i = 0; i < 6; ++i) {
        futures.push_back(manager_->SubmitTask(
            "sleepy", Value::Dict({{"ms", Value(10)}}), {},
            Resources{1, 64, 64}));
        futures.push_back(manager_->SubmitCall(
            "numbers", "use_context", Value::Dict({{"x", Value(i)}})));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      const auto ids = factory_->WorkerIds();
      ASSERT_FALSE(ids.empty());
      ASSERT_TRUE(
          factory_
              ->KillWorker(ids[(seed + static_cast<std::uint64_t>(wave)) %
                               ids.size()])
              .ok());
      ASSERT_TRUE(factory_->SpawnWorker().ok());
    }

    // Phase 3: force an eviction drain, with the drain racing a kill.
    auto spec_b = manager_->CreateLibraryFromFunctions(
        "other", {"use_context"}, "number_setup",
        Value::Dict({{"number", Value(200)}}));
    ASSERT_TRUE(spec_b.ok());
    spec_b->resources = Resources{2, 1024, 1024};
    spec_b->slots = 2;
    spec_b->exec_mode = ExecMode::kFork;
    ASSERT_TRUE(manager_->InstallLibrary(*spec_b).ok());
    for (int i = 0; i < 6; ++i) {
      futures.push_back(manager_->SubmitCall(
          "other", "use_context", Value::Dict({{"x", Value(i)}})));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      const auto ids = factory_->WorkerIds();
      ASSERT_FALSE(ids.empty());
      ASSERT_TRUE(factory_->KillWorker(ids[seed % ids.size()]).ok());
      ASSERT_TRUE(factory_->SpawnWorker().ok());
    }

    ASSERT_TRUE(manager_->WaitAll(180.0).ok()) << "a future never resolved";

    // Invariant 1: every future resolved exactly once.
    int succeeded = 0;
    for (const auto& future : futures) {
      ASSERT_TRUE(future->Ready());
      EXPECT_EQ(future->resolutions(), 1u);
      if (future->Wait().ok()) ++succeeded;
    }
    // Injected task/invocation failures surface as clean errors; churn
    // retries the rest, so the workload must mostly succeed.
    EXPECT_GE(succeeded, static_cast<int>(futures.size() / 2));

    // Invariant 2: every scheduler structure drains, gauges match reality.
    const QuiescenceReport report = WaitQuiescent(30.0);
    EXPECT_TRUE(report.quiescent) << report.ToString();

    // Invariant 3: every retained blob is intact.
    VerifyWorkerStores();

    // The plan actually fired, and the flight journal shows it.
    EXPECT_GT(fault_->stats().TotalInjected(), 0u);
    bool saw_injection_event = false;
    for (const auto& event : manager_->telemetry().flight.Dump()) {
      if (std::strncmp(event.tag, "inj-", 4) == 0) {
        saw_injection_event = true;
        break;
      }
    }
    EXPECT_TRUE(saw_injection_event);

    // Tear down this seed's cluster before the next iteration.
    StopCluster();
  }
}

}  // namespace
}  // namespace vinelet::core

// ---------------------------------------------------------------------------
// DES mirror: the same FaultPlan replays identically in virtual time.
// ---------------------------------------------------------------------------

namespace vinelet::sim {
namespace {

SimConfig FaultyConfig(std::uint64_t seed) {
  SimConfig config;
  config.level = core::ReuseLevel::kL3;
  config.cluster.num_workers = 6;
  config.seed = 42;
  config.fault.seed = seed;
  config.fault.worker.setup_failure_p = 0.1;
  config.fault.worker.invocation_failure_p = 0.05;
  config.fault.worker.straggler_p = 0.1;
  config.fault.worker.straggler_delay_s = 2.0;
  config.fault.kills.push_back({5.0, 2});
  config.fault.kills.push_back({12.0, 4});
  return config;
}

TEST(ChaosSimTest, FaultPlanReplaysIdentically) {
  const WorkloadCosts costs = LnniCosts(16);
  const SimResult a =
      VineSim(FaultyConfig(9), BuildLnniWorkload(costs, 600)).Run();
  const SimResult b =
      VineSim(FaultyConfig(9), BuildLnniWorkload(costs, 600)).Run();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.run_times.size(), b.run_times.size());
  for (std::size_t i = 0; i < a.run_times.size(); ++i)
    EXPECT_DOUBLE_EQ(a.run_times[i], b.run_times[i]);
  EXPECT_EQ(a.injected_kills, b.injected_kills);
  EXPECT_EQ(a.injected_setup_failures, b.injected_setup_failures);
  EXPECT_EQ(a.injected_invocation_failures, b.injected_invocation_failures);
  EXPECT_EQ(a.injected_stragglers, b.injected_stragglers);
}

TEST(ChaosSimTest, DifferentFaultSeedsDiverge) {
  const WorkloadCosts costs = LnniCosts(16);
  const SimResult a =
      VineSim(FaultyConfig(9), BuildLnniWorkload(costs, 600)).Run();
  const SimResult b =
      VineSim(FaultyConfig(10), BuildLnniWorkload(costs, 600)).Run();
  EXPECT_NE(a.makespan, b.makespan);
}

TEST(ChaosSimTest, ScheduledKillsApplied) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config;
  config.level = core::ReuseLevel::kL3;
  config.cluster.num_workers = 6;
  // Libraries take ~20 s to roll out (env transfer + unpack + setup); kill
  // after that so the deaths destroy *deployed* instances, not in-flight
  // setups, and the respawned workers must redeploy.
  config.fault.kills.push_back({40.0, 1});
  config.fault.kills.push_back({60.0, 3});
  const SimResult result =
      VineSim(config, BuildLnniWorkload(costs, 2000)).Run();
  EXPECT_EQ(result.injected_kills, 2u);
  EXPECT_GE(result.worker_deaths, 2u);
  // Deaths force library redeployments yet everything still completes.
  EXPECT_EQ(result.invocations_completed, 2000u);
  EXPECT_GT(result.libraries_deployed_total, 6u * 16u);
}

TEST(ChaosSimTest, InjectedFailuresRequeueAndComplete) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config;
  config.level = core::ReuseLevel::kL3;
  config.cluster.num_workers = 6;
  config.fault.worker.invocation_failure_p = 0.05;
  const SimResult result =
      VineSim(config, BuildLnniWorkload(costs, 800)).Run();
  EXPECT_GT(result.injected_invocation_failures, 0u);
  EXPECT_GE(result.requeued_invocations, result.injected_invocation_failures);
  EXPECT_EQ(result.invocations_completed, 800u);
}

TEST(ChaosSimTest, SetupFailuresRetriedUntilDeployed) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config;
  config.level = core::ReuseLevel::kL3;
  config.cluster.num_workers = 4;
  config.fault.worker.setup_failure_p = 0.3;
  const SimResult result =
      VineSim(config, BuildLnniWorkload(costs, 500)).Run();
  EXPECT_GT(result.injected_setup_failures, 0u);
  EXPECT_EQ(result.invocations_completed, 500u);
}

TEST(ChaosSimTest, StragglersExtendRunTimes) {
  const WorkloadCosts costs = LnniCosts(16);
  SimConfig config;
  config.level = core::ReuseLevel::kL3;
  config.cluster.num_workers = 6;
  const SimResult base = VineSim(config, BuildLnniWorkload(costs, 500)).Run();
  config.fault.worker.straggler_p = 0.3;
  config.fault.worker.straggler_delay_s = 5.0;
  const SimResult slow = VineSim(config, BuildLnniWorkload(costs, 500)).Run();
  EXPECT_GT(slow.injected_stragglers, 0u);
  EXPECT_EQ(slow.invocations_completed, 500u);
  // The injected delay is externally indistinguishable from slow execution.
  EXPECT_GE(slow.run_time.max(), 5.0);
  EXPECT_GT(slow.run_time.mean(), base.run_time.mean());
}

}  // namespace
}  // namespace vinelet::sim
