// Quickstart: the paper's Figure 5 code sample, in vinelet.
//
// A user splits a computation into a context-setup function and an
// invocation function, creates a library for it, attaches a shared input
// file, installs the library, and submits FunctionCalls that only carry
// their arguments.
//
//   $ ./quickstart
#include <cstdio>

#include "common/log.hpp"
#include "core/cluster.hpp"

using namespace vinelet;
using serde::Value;

namespace {

/// The reusable context: a lookup table parsed once from an input file.
class TableContext final : public serde::FunctionContext {
 public:
  explicit TableContext(std::vector<std::int64_t> table)
      : table_(std::move(table)) {}
  std::uint64_t MemoryBytes() const override {
    return table_.size() * sizeof(std::int64_t);
  }
  const std::vector<std::int64_t>& table() const noexcept { return table_; }

 private:
  std::vector<std::int64_t> table_;
};

void RegisterFunctions(serde::FunctionRegistry& registry) {
  // def context_setup(...):  parse the dataset file into memory, once.
  serde::ContextSetupDef setup;
  setup.name = "table_setup";
  setup.fn = [](const Value&, const serde::InvocationEnv& env)
      -> Result<serde::ContextHandle> {
    const Blob& file = env.File("dataset.txt");
    std::vector<std::int64_t> table;
    std::int64_t current = 0;
    bool in_number = false;
    for (std::uint8_t byte : file.span()) {
      if (byte >= '0' && byte <= '9') {
        current = current * 10 + (byte - '0');
        in_number = true;
      } else if (in_number) {
        table.push_back(current);
        current = 0;
        in_number = false;
      }
    }
    if (in_number) table.push_back(current);
    std::printf("[worker] context setup: parsed %zu entries\n", table.size());
    return serde::ContextHandle(std::make_shared<TableContext>(table));
  };
  (void)registry.RegisterSetup(std::move(setup));

  // def f(i):  look up entry i in the retained table.
  serde::FunctionDef lookup;
  lookup.name = "lookup";
  lookup.setup_name = "table_setup";
  lookup.fn = [](const Value& args,
                 const serde::InvocationEnv& env) -> Result<Value> {
    const auto* ctx = dynamic_cast<const TableContext*>(env.context);
    if (ctx == nullptr)
      return FailedPreconditionError("no retained context (not running L3?)");
    const auto index = static_cast<std::size_t>(args.Get("i").AsInt());
    if (index >= ctx->table().size())
      return InvalidArgumentError("index out of range");
    return Value(ctx->table()[index]);
  };
  (void)registry.RegisterFunction(std::move(lookup));
}

}  // namespace

int main() {
  Log::SetLevel(LogLevel::kInfo);
  serde::FunctionRegistry registry;
  RegisterFunctions(registry);

  // manager = vine.Manager(...), plus two local workers (a tiny cluster)
  // on the in-process bus.
  core::ManagerConfig manager_config;
  manager_config.registry = &registry;
  core::FactoryConfig factory_config;
  factory_config.initial_workers = 2;
  core::Cluster cluster(std::make_shared<net::Network>(), manager_config,
                        factory_config);
  if (Status status = cluster.Start(); !status.ok()) {
    std::printf("cluster start failed: %s\n", status.ToString().c_str());
    return 1;
  }
  core::Manager& manager = cluster.manager();

  // dataset_file = vine.File('dataset.txt', cache=True, peer_transfer=True)
  std::string dataset;
  for (int i = 0; i < 100; ++i) dataset += std::to_string(i * i) + "\n";
  storage::FileDecl dataset_decl = manager.DeclareBlob(
      "dataset.txt", Blob::FromString(dataset), storage::FileKind::kData,
      /*cache=*/true, /*peer_transfer=*/true);

  // library = manager.create_library_from_functions('lib', f, context=...)
  auto library = manager.CreateLibraryFromFunctions(
      "lib", {"lookup"}, "table_setup", Value());
  if (!library.ok()) {
    std::printf("create library failed: %s\n",
                library.status().ToString().c_str());
    return 1;
  }
  // library.add_input(dataset_file)
  manager.AddLibraryInput(*library, dataset_decl);
  // manager.install_library(library)
  (void)manager.InstallLibrary(*library);

  // for i in range(10): manager.submit(vine.FunctionCall('lib', 'f', i))
  std::vector<core::FuturePtr> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(
        manager.SubmitCall("lib", "lookup", Value::Dict({{"i", Value(i * 7)}})));
  }

  std::printf("results:");
  for (auto& future : futures) {
    auto outcome = future->Wait();
    if (!outcome.ok()) {
      std::printf("\ninvocation failed: %s\n",
                  outcome.status().ToString().c_str());
      return 1;
    }
    std::printf(" %lld", static_cast<long long>(outcome->value.AsInt()));
  }
  std::printf("\n");

  const auto metrics = manager.metrics();
  std::printf("invocations=%llu, libraries deployed=%llu, avg share=%.1f\n",
              static_cast<unsigned long long>(metrics.invocations_completed),
              static_cast<unsigned long long>(metrics.libraries_deployed),
              metrics.AvgShareValue());
  cluster.Stop();
  return 0;
}
