// DagEngine over a mock executor and over the real runtime: dependency
// ordering, fan-in/fan-out, failure propagation, diamond DAGs.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "cluster_fixture.hpp"
#include "dag/dag_engine.hpp"

namespace vinelet::dag {
namespace {

using serde::Value;

/// Task-mode AppCall for a named function.
AppCall TaskCall(const std::string& function) {
  AppCall call;
  call.function = function;
  return call;
}

/// Executor that runs calls inline on a worker thread pool of one, recording
/// execution order.
class MockExecutor final : public Executor {
 public:
  core::FuturePtr Execute(const AppCall& call, const Value& args) override {
    auto future = std::make_shared<core::OutcomeFuture>();
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(call.function);
    if (call.function == "boom") {
      future->Resolve(InternalError("boom"));
      return future;
    }
    // "sum": adds all numeric arguments (arguments arrive as a list).
    double total = 0;
    for (const auto& arg : args.AsList()) {
      if (arg.type() == Value::Type::kInt ||
          arg.type() == Value::Type::kFloat) {
        total += arg.AsNumber();
      }
    }
    core::Outcome outcome;
    outcome.value = Value(total);
    future->Resolve(std::move(outcome));
    return future;
  }

  std::vector<std::string> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> order_;
};

TEST(DagEngineTest, SingleNode) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto future = engine.Submit(TaskCall("sum"), {Arg(Value(1)), Arg(Value(2))});
  auto result = future->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->AsNumber(), 3.0);
  EXPECT_EQ(engine.nodes_completed(), 1u);
}

TEST(DagEngineTest, ChainPropagatesValues) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto a = engine.Submit(TaskCall("sum"), {Arg(Value(1))});
  auto b = engine.Submit(TaskCall("sum"), {Arg(a), Arg(Value(10))});
  auto c = engine.Submit(TaskCall("sum"), {Arg(b), Arg(Value(100))});
  auto result = c->Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->AsNumber(), 111.0);
}

TEST(DagEngineTest, DiamondJoinsBothBranches) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto root = engine.Submit(TaskCall("sum"), {Arg(Value(1))});
  auto left = engine.Submit(TaskCall("sum"), {Arg(root), Arg(Value(10))});
  auto right = engine.Submit(TaskCall("sum"), {Arg(root), Arg(Value(20))});
  auto join = engine.Submit(TaskCall("sum"), {Arg(left), Arg(right)});
  auto result = join->Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->AsNumber(), 32.0);  // (1+10) + (1+20)
}

TEST(DagEngineTest, WideFanOut) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto root = engine.Submit(TaskCall("sum"), {Arg(Value(5))});
  std::vector<AppFuturePtr> leaves;
  for (int i = 0; i < 50; ++i)
    leaves.push_back(engine.Submit(TaskCall("sum"), {Arg(root), Arg(Value(i))}));
  engine.WaitAll();
  for (int i = 0; i < 50; ++i) {
    auto result = leaves[static_cast<std::size_t>(i)]->Wait();
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->AsNumber(), 5.0 + i);
  }
  EXPECT_EQ(engine.nodes_submitted(), 51u);
}

TEST(DagEngineTest, DependencyOrderRespected) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto a = engine.Submit(TaskCall("first"), {});
  auto b = engine.Submit(TaskCall("second"), {Arg(a)});
  auto c = engine.Submit(TaskCall("third"), {Arg(b)});
  engine.WaitAll();
  (void)c;
  const auto order = executor.order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "second");
  EXPECT_EQ(order[2], "third");
}

TEST(DagEngineTest, FailurePropagatesDownstream) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto bad = engine.Submit(TaskCall("boom"), {});
  auto dependent = engine.Submit(TaskCall("sum"), {Arg(bad), Arg(Value(1))});
  auto grandchild = engine.Submit(TaskCall("sum"), {Arg(dependent)});
  EXPECT_FALSE(bad->Wait().ok());
  EXPECT_EQ(dependent->Wait().status().code(), ErrorCode::kCancelled);
  EXPECT_EQ(grandchild->Wait().status().code(), ErrorCode::kCancelled);
  // The failed branch's functions never executed downstream.
  for (const auto& name : executor.order()) EXPECT_NE(name, "sum");
}

TEST(DagEngineTest, IndependentBranchSurvivesSiblingFailure) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto bad = engine.Submit(TaskCall("boom"), {});
  auto good = engine.Submit(TaskCall("sum"), {Arg(Value(7))});
  EXPECT_FALSE(bad->Wait().ok());
  auto result = good->Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->AsNumber(), 7.0);
}

TEST(DagEngineTest, ReadyDependencyShortCircuits) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto a = engine.Submit(TaskCall("sum"), {Arg(Value(1))});
  ASSERT_TRUE(a->Wait().ok());  // already resolved before b is submitted
  auto b = engine.Submit(TaskCall("sum"), {Arg(a), Arg(Value(2))});
  auto result = b->Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->AsNumber(), 3.0);
}

TEST(DagEngineTest, WaitForTimesOut) {
  MockExecutor executor;
  DagEngine engine(&executor);
  auto bad = engine.Submit(TaskCall("boom"), {});
  auto dependent = engine.Submit(TaskCall("sum"), {Arg(bad)});
  // Both resolve quickly (failure path), so WaitFor succeeds.
  EXPECT_TRUE(dependent->WaitFor(10.0).has_value());
}

// ---------------------------------------------------------------------------
// DAG over the real runtime (VineletExecutor end to end).
// ---------------------------------------------------------------------------

class DagRuntimeTest : public ::testing::TestWithParam<core::TransportKind> {
 protected:
  void SetUp() override {
    serde::FunctionDef list_sum;
    list_sum.name = "list_sum";
    list_sum.fn = [](const Value& args,
                     const serde::InvocationEnv&) -> Result<Value> {
      double total = 0;
      for (const auto& arg : args.AsList()) {
        if (arg.type() == Value::Type::kInt ||
            arg.type() == Value::Type::kFloat)
          total += arg.AsNumber();
      }
      return Value(total);
    };
    ASSERT_TRUE(registry_.RegisterFunction(list_sum).ok());

    core::ManagerConfig config;
    config.registry = &registry_;
    core::FactoryConfig factory_config;
    factory_config.initial_workers = 2;
    cluster_ = core::StartTestCluster(GetParam(), config, factory_config);
    ASSERT_NE(cluster_, nullptr);
    manager_ = &cluster_->manager();
  }

  serde::FunctionRegistry registry_;
  std::unique_ptr<core::Cluster> cluster_;
  core::Manager* manager_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(, DagRuntimeTest, core::kBothTransports,
                         core::TransportName);

TEST_P(DagRuntimeTest, TaskModeDagEndToEnd) {
  VineletExecutor executor(manager_);
  DagEngine engine(&executor);
  AppCall call = TaskCall("list_sum");
  call.task_resources = core::Resources{1, 64, 64};
  auto a = engine.Submit(call, {Arg(Value(3))});
  auto b = engine.Submit(call, {Arg(Value(4))});
  auto joined = engine.Submit(call, {Arg(a), Arg(b), Arg(Value(100))});
  auto result = joined->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->AsNumber(), 107.0);
}

TEST_P(DagRuntimeTest, InvocationModeDagEndToEnd) {
  auto spec = manager_->CreateLibraryFromFunctions("sums", {"list_sum"});
  ASSERT_TRUE(spec.ok());
  core::LibraryOptions options;
  spec->slots = 2;
  spec->resources = core::Resources{2, 1024, 1024};
  (void)options;
  ASSERT_TRUE(manager_->InstallLibrary(*spec).ok());

  VineletExecutor executor(manager_);
  DagEngine engine(&executor);
  AppCall call = TaskCall("list_sum");
  call.library = "sums";
  std::vector<AppFuturePtr> layer;
  for (int i = 0; i < 8; ++i)
    layer.push_back(engine.Submit(call, {Arg(Value(i))}));
  std::vector<Arg> args;
  for (auto& f : layer) args.emplace_back(f);
  auto total = engine.Submit(call, args);
  auto result = total->Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(result->AsNumber(), 28.0);  // 0+1+...+7
  EXPECT_GE(manager_->metrics().invocations_completed, 9u);
}

}  // namespace
}  // namespace vinelet::dag
