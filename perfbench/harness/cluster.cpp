#include "harness/cluster.hpp"

#include <cstdio>
#include <cstdlib>

#include "harness/report.hpp"
#include "harness/timed_transport.hpp"

namespace perfbench {

using namespace vinelet;

TcpCluster::TcpCluster(ClusterOptions options)
    : options_(options),
      send_s_(&telemetry_.metrics.GetHistogram("perfbench.net_send_s")),
      frames_(&telemetry_.metrics.GetCounter("perfbench.net_frames")) {}

TcpCluster::~TcpCluster() { Stop(); }

std::shared_ptr<net::Transport> TcpCluster::Wrap(
    std::shared_ptr<net::TcpTransport> transport) {
  if (!options_.timed_transport) return transport;
  auto wrapper =
      std::make_shared<TimedTransport>(std::move(transport), send_s_, frames_);
  wrappers_.push_back(wrapper);
  return wrapper;
}

Status TcpCluster::Start() {
  hub_ = std::make_shared<net::TcpTransport>(net::TcpTransportConfig{});
  VINELET_RETURN_IF_ERROR(hub_->Start());
  core::ManagerConfig manager_config;
  manager_config.registry = options_.registry;
  manager_config.telemetry = &telemetry_;
  manager_ = std::make_unique<core::Manager>(Wrap(hub_), manager_config);
  VINELET_RETURN_IF_ERROR(manager_->Start());
  for (std::size_t i = 0; i < kWorkers; ++i) {
    net::TcpTransportConfig node_config;
    node_config.hub_host = "127.0.0.1";
    node_config.hub_port = hub_->listen_port();
    auto node = std::make_shared<net::TcpTransport>(node_config);
    nodes_.push_back(node);
    VINELET_RETURN_IF_ERROR(node->Start());
    core::WorkerConfig worker_config;
    worker_config.id = static_cast<core::WorkerId>(i + 1);
    worker_config.resources = {kCoresPerWorker, 4096, 4096};
    worker_config.registry = options_.registry;
    worker_config.telemetry = &telemetry_;
    worker_config.ref_results_min_bytes = options_.ref_results_min_bytes;
    workers_.push_back(std::make_unique<core::Worker>(Wrap(node), worker_config));
    VINELET_RETURN_IF_ERROR(workers_.back()->Start());
  }
  return manager_->WaitForWorkers(kWorkers, 30.0);
}

void TcpCluster::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (manager_) manager_->Stop();
  for (auto& worker : workers_) worker->Stop();
  for (auto& node : nodes_) node->Shutdown();
  if (hub_) hub_->Shutdown();
  // Transports are quiet now; the wrappers (and their listener hooks) can go.
  manager_.reset();
  workers_.clear();
  wrappers_.clear();
}

std::vector<net::ConnectionStats> TcpCluster::HubConnections() const {
  return hub_ ? hub_->ConnectionsSnapshot()
              : std::vector<net::ConnectionStats>{};
}

std::vector<net::ConnectionStats> TcpCluster::AllConnections() const {
  std::vector<net::ConnectionStats> all = HubConnections();
  for (const auto& node : nodes_) {
    auto stats = node->ConnectionsSnapshot();
    all.insert(all.end(), stats.begin(), stats.end());
  }
  return all;
}


void DrainOrExit(core::Manager& manager) {
  // WaitAll returns only after FinishOne, which follows the future's
  // Resolve — and with it the OnReady callback — on the manager thread.
  Status status = manager.WaitAll(120.0);
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: cluster did not drain: %s\n",
               status.ToString().c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

Status WarmLibrary(core::Manager& manager, const std::string& library,
                   std::size_t burst,
                   const std::function<core::FuturePtr()>& submit) {
  for (int round = 0; round < 200; ++round) {
    std::vector<core::FuturePtr> futures;
    for (std::size_t i = 0; i < burst; ++i) futures.push_back(submit());
    for (auto& future : futures) {
      auto outcome = future->WaitFor(std::chrono::duration<double>(60.0));
      if (!outcome.has_value()) return TimeoutError("warm-up call timed out");
      if (!outcome->ok()) return outcome->status();
    }
    auto status = manager.QueryStatus(10.0);
    if (!status.ok()) return status.status();
    for (const auto& set : status->scheduler.affinity_sets)
      if (set.library == library && set.workers.size() >= kWorkers)
        return Status::Ok();
  }
  return UnavailableError("library " + library + " did not spread to every worker");
}


Blob MakeSharedData() {
  std::vector<std::uint8_t> data(kSharedDataBytes);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  return Blob(std::move(data));
}

Result<storage::FileDecl> DistributeSharedData(core::Manager& manager,
                                               const std::string& name,
                                               const Blob& data,
                                               double* broadcast_s) {
  const double start = NowS();
  storage::FileDecl decl = manager.DeclareBlob(
      name, data, storage::FileKind::kData, /*cache=*/true);
  auto outcome = manager.BroadcastFile(decl)->WaitFor(
      std::chrono::duration<double>(60.0));
  if (!outcome.has_value()) return TimeoutError("broadcast of " + name);
  if (!outcome->ok()) return outcome->status();
  *broadcast_s = NowS() - start;
  return decl;
}

}  // namespace perfbench
