// dag-chain: W independent chains of depth D joined by one fan-in, repeated
// in rounds.  Every node returns a >= 64 KiB payload, which the worker keeps
// and reports as a BlobRef (ref_results_min_bytes); the next node of the
// chain is submitted from the predecessor's OnReady callback with that ref
// as its argument, so each edge pays result -> manager -> dispatch plus a
// peer-to-peer (or local) fetch of the payload.  An edge is timed from the
// predecessor resolving to the successor resolving.
//
// Payload format: 16 hex digits of a running value v, then filler bytes
// that all equal 'a' + v % 26.  Each step checks its input's filler against
// its header and derives v' = Mix(v, step), so the fan-in's sum of final
// values verifies every link of every chain, in order.
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <random>

#include "core/blob_ref.hpp"
#include "harness/stats.hpp"
#include "harness/workloads.hpp"

namespace perfbench {

using namespace vinelet;
using serde::Value;

namespace {

constexpr std::size_t kChains = 8;       // W
constexpr std::int64_t kDepth = 64;      // D: steps after each chain head
constexpr std::int64_t kPayloadBytes = 256 * 1024;
constexpr std::uint64_t kRefMinBytes = 64 * 1024;
constexpr std::uint64_t kValueMask = (1ull << 62) - 1;

std::uint64_t Mix(std::uint64_t v, std::int64_t step) {
  std::uint64_t z = v ^ (static_cast<std::uint64_t>(step) * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) & kValueMask;
}

std::string MakePayload(std::uint64_t v) {
  std::string payload(static_cast<std::size_t>(kPayloadBytes),
                      static_cast<char>('a' + v % 26));
  char header[17];
  std::snprintf(header, sizeof(header), "%016llx", static_cast<unsigned long long>(v));
  payload.replace(0, 16, header, 16);
  return payload;
}

/// Parses and checks a payload; fails on any inconsistency.
Result<std::uint64_t> ParsePayload(const Value& value) {
  if (value.type() != Value::Type::kString)
    return InvalidArgumentError("payload not materialized");
  const std::string& s = value.AsString();
  if (s.size() != static_cast<std::size_t>(kPayloadBytes))
    return DataLossError("payload size");
  const std::uint64_t v = std::stoull(s.substr(0, 16), nullptr, 16);
  const char fill = static_cast<char>('a' + v % 26);
  for (std::size_t i = 16; i < s.size(); i += 4093)
    if (s[i] != fill) return DataLossError("payload filler");
  if (s.back() != fill) return DataLossError("payload filler");
  return v;
}

void RegisterFunctions(serde::FunctionRegistry& registry) {
  serde::FunctionDef head;
  head.name = "chain_head";
  head.fn = [](const Value& args, const serde::InvocationEnv&) -> Result<Value> {
    auto v0 = args.GetInt("v0");
    if (!v0.ok()) return v0.status();
    return Value(MakePayload(static_cast<std::uint64_t>(*v0)));
  };
  (void)registry.RegisterFunction(head);

  serde::FunctionDef step;
  step.name = "chain_step";
  step.fn = [](const Value& args, const serde::InvocationEnv&) -> Result<Value> {
    if (args.type() != Value::Type::kList || args.AsList().size() != 2)
      return InvalidArgumentError("expected [payload, step]");
    auto v = ParsePayload(args.AsList()[0]);
    if (!v.ok()) return v.status();
    return Value(MakePayload(Mix(*v, args.AsList()[1].AsInt())));
  };
  (void)registry.RegisterFunction(step);

  serde::FunctionDef fanin;
  fanin.name = "chain_fanin";
  fanin.fn = [](const Value& args, const serde::InvocationEnv&) -> Result<Value> {
    if (args.type() != Value::Type::kList)
      return InvalidArgumentError("expected payload list");
    std::uint64_t sum = 0;
    for (const Value& payload : args.AsList()) {
      auto v = ParsePayload(payload);
      if (!v.ok()) return v.status();
      sum = (sum + *v) & kValueMask;
    }
    return Value(static_cast<std::int64_t>(sum));
  };
  (void)registry.RegisterFunction(fanin);
}

struct Setup {
  std::unique_ptr<TcpCluster> cluster;
  double seconds = 0.0, broadcast_s = 0.0;
};

Result<Setup> SetUp(const serde::FunctionRegistry& registry, bool traced,
                    const Blob& shared_data) {
  const double start = NowS();
  Setup setup;
  ClusterOptions options;
  options.registry = &registry;
  options.timed_transport = traced;
  options.ref_results_min_bytes = kRefMinBytes;
  setup.cluster = std::make_unique<TcpCluster>(options);
  VINELET_RETURN_IF_ERROR(setup.cluster->Start());
  core::Manager& manager = setup.cluster->manager();
  core::LibraryOptions library;
  library.resources = {2, 1024, 1024};
  library.slots = 2;  // one per core: a busy worker pushes edges to its peer
  library.exec_mode = core::ExecMode::kDirect;
  auto spec = manager.CreateLibraryFromFunctions(
      "chain", {"chain_head", "chain_step", "chain_fanin"}, "", Value(), nullptr,
      library);
  if (!spec.ok()) return spec.status();
  auto shared = DistributeSharedData(manager, "chain-shared.bin", shared_data,
                                     &setup.broadcast_s);
  if (!shared.ok()) return shared.status();
  manager.AddLibraryInput(*spec, *shared);
  VINELET_RETURN_IF_ERROR(manager.InstallLibrary(*spec));
  // Warm with small results only, so no ref is left pinned.
  VINELET_RETURN_IF_ERROR(WarmLibrary(manager, "chain", 32, [&] {
    return manager.SubmitCall("chain", "chain_fanin", Value::List({}));
  }));
  setup.seconds = NowS() - start;
  return setup;
}

/// One round: W chains, then the fan-in.  Runs on the manager thread via
/// OnReady callbacks; the application thread only starts it and waits.
class Round {
 public:
  Round(core::Manager& manager, std::vector<std::uint64_t> heads)
      : manager_(manager), heads_(std::move(heads)), tails_(heads_.size()),
        resolved_(heads_.size(), std::vector<double>(kDepth + 1, 0.0)) {}

  /// Starts every chain; returns after the fan-in resolved (or failed).
  void Run() {
    start_s_ = NowS();
    for (std::size_t c = 0; c < heads_.size(); ++c) {
      auto future = manager_.SubmitCall(
          "chain", "chain_head",
          Value::Dict({{"v0", Value(static_cast<std::int64_t>(heads_[c]))}}));
      future->OnReady([this, c](const Result<core::Outcome>& outcome) {
        OnNode(c, 0, Value(), outcome);
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return finished_; });
  }

  double makespan_s() const { return end_s_ - start_s_; }
  std::uint64_t succeeded() const { return succeeded_; }
  std::uint64_t mismatches() const { return mismatches_; }
  const std::vector<double>& submit_s() const { return submit_s_; }
  /// Chain edges: successor resolve - predecessor resolve, seconds.
  std::vector<double> Edges() const {
    std::vector<double> edges;
    for (const auto& chain : resolved_)
      for (std::size_t k = 1; k < chain.size(); ++k)
        if (chain[k] > 0 && chain[k - 1] > 0) edges.push_back(chain[k] - chain[k - 1]);
    return edges;
  }
  /// Expected fan-in result, computed locally.
  std::int64_t Expected() const {
    std::uint64_t sum = 0;
    for (std::uint64_t v : heads_) {
      for (std::int64_t step = 1; step <= kDepth; ++step) v = Mix(v, step);
      sum = (sum + v) & kValueMask;
    }
    return static_cast<std::int64_t>(sum);
  }

 private:
  /// Node `step` of chain `c` resolved; `input` is the ref it consumed.
  /// Submissions happen outside mu_: OnReady runs its callback inline when
  /// the future has already resolved.
  void OnNode(std::size_t c, std::int64_t step, const Value& input,
              const Result<core::Outcome>& outcome) {
    const double now = NowS();
    if (auto ref = core::TryUnwrapRef(input)) (void)manager_.ReleaseRef(*ref);
    bool chain_over = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!outcome.ok()) {
        // failed: the chain ends here
      } else if (!core::TryUnwrapRef(outcome->value)) {
        ++mismatches_;  // the result did not pass by reference
      } else {
        ++succeeded_;
        resolved_[c][static_cast<std::size_t>(step)] = now;
        if (step == kDepth)
          tails_[c] = outcome->value;
        else
          chain_over = false;
      }
      if (chain_over && ++chains_done_ < heads_.size()) return;
    }
    if (chain_over) return StartFanin();
    const Value produced = outcome->value;
    const double submit_start = NowS();
    auto next = manager_.SubmitCall(
        "chain", "chain_step", Value::List({produced, Value(step + 1)}));
    const double submit_s = NowS() - submit_start;
    {
      std::lock_guard<std::mutex> lock(mu_);
      submit_s_.push_back(submit_s);
    }
    next->OnReady([this, c, step, produced](const Result<core::Outcome>& o) {
      OnNode(c, step + 1, produced, o);
    });
  }

  /// Every chain is over: fold the tails (when all chains completed).
  void StartFanin() {
    for (const Value& tail : tails_) {
      if (!core::TryUnwrapRef(tail)) {
        std::lock_guard<std::mutex> lock(mu_);
        return FinishLocked();
      }
    }
    auto fanin = manager_.SubmitCall("chain", "chain_fanin",
                                     Value::List(serde::ValueList(tails_)));
    fanin->OnReady([this](const Result<core::Outcome>& outcome) {
      for (const Value& tail : tails_)
        if (auto ref = core::TryUnwrapRef(tail)) (void)manager_.ReleaseRef(*ref);
      std::lock_guard<std::mutex> lock(mu_);
      if (outcome.ok()) {
        ++succeeded_;
        if (outcome->value.type() != Value::Type::kInt ||
            outcome->value.AsInt() != Expected())
          ++mismatches_;
      }
      FinishLocked();
    });
  }

  void FinishLocked() {
    end_s_ = NowS();
    finished_ = true;
    cv_.notify_all();
  }

  core::Manager& manager_;
  std::vector<std::uint64_t> heads_;
  std::vector<Value> tails_;
  std::vector<std::vector<double>> resolved_;
  std::mutex mu_;
  std::vector<double> submit_s_;
  std::condition_variable cv_;
  bool finished_ = false;
  std::size_t chains_done_ = 0;
  std::uint64_t succeeded_ = 0, mismatches_ = 0;
  double start_s_ = 0.0, end_s_ = 0.0;
};

double Measure(const RunConfig& config, const serde::FunctionRegistry& registry,
               const Blob& shared_data, bool traced, double seconds,
               std::vector<double>& setups, Report& report) {
  Setup setup;
  if (!SetUpRepeatedly(traced, setup, setups, report,
                       [&] { return SetUp(registry, traced, shared_data); }))
    return 0.0;
  core::Manager& manager = setup.cluster->manager();
  const LayerBaseline base = BeginMeasured(*setup.cluster);

  std::mt19937_64 rng(config.seed);
  std::vector<double> makespans, edges, round_edge_p50, round_cpu_s, submit_s;
  std::uint64_t succeeded = 0, mismatches = 0;
  const double cpu_start = ProcessCpuS();
  const double nodes_per_round = static_cast<double>(kChains * (kDepth + 1) + 1);
  const double deadline = NowS() + seconds;
  while (NowS() < deadline || makespans.empty()) {
    std::vector<std::uint64_t> heads(kChains);
    for (auto& h : heads) h = rng() & kValueMask;
    Round round(manager, std::move(heads));
    const double round_cpu_start = ProcessCpuS();
    round.Run();
    DrainOrExit(manager);  // the fan-in's ref releases are queued commands
    round_cpu_s.push_back(ProcessCpuS() - round_cpu_start);
    succeeded += round.succeeded();
    mismatches += round.mismatches();
    makespans.push_back(round.makespan_s());
    submit_s.insert(submit_s.end(), round.submit_s().begin(), round.submit_s().end());
    const auto e = round.Edges();
    round_edge_p50.push_back(Median(e));
    edges.insert(edges.end(), e.begin(), e.end());
  }
  const double cpu_s = ProcessCpuS() - cpu_start;
  const std::uint64_t expected_ops =
      makespans.size() * (kChains * (kDepth + 1) + 1);
  report.Phase(traced ? "chains/traced" : "chains", expected_ops, succeeded,
               expected_ops - succeeded, mismatches);
  const Summary edge = Summarize(edges, 0);
  const double makespan = Median(makespans);
  const double nodes_per_s = nodes_per_round / makespan;
  const double best_makespan = BestDecile(makespans, /*lower_is_better=*/true);
  const double best_edge_p50 = BestDecile(round_edge_p50, /*lower_is_better=*/true);
  const double cpu_us_per_node =
      cpu_s / (nodes_per_round * static_cast<double>(makespans.size())) * 1e6;
  const double best_cpu_us_per_node =
      BestDecile(round_cpu_s, /*lower_is_better=*/true) / nodes_per_round * 1e6;
  std::printf("dag-chain%s: %zu rounds of %zu chains x %lld steps + fan-in, "
              "%lld KiB refs: makespan p50 %.4f s; edge %s\n",
              traced ? " (traced)" : "", makespans.size(), kChains,
              static_cast<long long>(kDepth),
              static_cast<long long>(kPayloadBytes / 1024), makespan,
              edge.Format("ms", 1e3).c_str());
  std::printf("dag-chain%s: best decile of rounds: makespan %.4f s, edge p50 "
              "%.4f ms, CPU per node %.1f us (all rounds %.1f us)\n",
              traced ? " (traced)" : "", best_makespan, best_edge_p50 * 1e3,
              best_cpu_us_per_node, cpu_us_per_node);
  if (!traced) {
    report.Set("makespan_s", makespan, "s", makespans.size());
    report.Set("edge_p50_ms", edge.median * 1e3, "ms", edge.samples);
    report.Set("inv_per_s", nodes_per_round / best_makespan, "1/s",
               makespans.size());
    report.Set("cpu_us_per_inv", best_cpu_us_per_node, "us", succeeded);
    report.Set("lat_p50_ms", best_edge_p50 * 1e3, "ms", edge.samples);
    report.Set("lat_p99_ms", edge.p99 * 1e3, "ms", edge.samples);
    report.Set("lat_p90_ms", edge.p90 * 1e3, "ms", edge.samples);
    return nodes_per_s;
  }

  LayerInputs in;
  in.ops = succeeded;
  in.submit_s = std::move(submit_s);
  in.ref_bytes_consumed = succeeded * static_cast<std::uint64_t>(kPayloadBytes);
  in.broadcast_s = setup.broadcast_s;
  {
    const std::string payload = MakePayload(1);
    const core::BlobRef ref{hash::ContentId::Of(Blob::FromString(payload)),
                            static_cast<std::uint64_t>(kPayloadBytes), 1};
    core::RunInvocationMsg call;
    call.id = 1;
    call.function_name = "chain_step";
    call.args = Value::List({core::WrapRef(ref), Value(1)}).ToBlob();
    call.ref_args = {core::RefArg{0, ref, 2}};
    core::InvocationDoneMsg done;
    done.id = 1;
    done.ok = true;
    done.ref = ref;
    in.replay = {call, done};
  }
  ReportLayers(*setup.cluster, base, in, report);
  return nodes_per_s;
}

}  // namespace

void RunDagChain(const RunConfig& config, Report& report) {
  serde::FunctionRegistry registry;
  RegisterFunctions(registry);
  const Blob shared_data = MakeSharedData();
  RunSections(config, report,
              [&](bool traced, double seconds, std::vector<double>& setups) {
                return Measure(config, registry, shared_data, traced, seconds,
                               setups, report);
              });
}

}  // namespace perfbench
