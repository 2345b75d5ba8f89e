#include "core/cluster.hpp"

namespace vinelet::core {
namespace {

FactoryConfig FromManager(FactoryConfig workers, Manager& manager,
                          const ManagerConfig& manager_config) {
  workers.registry = manager_config.registry;
  workers.telemetry = &manager.telemetry();
  return workers;
}

}  // namespace

Result<std::shared_ptr<net::Transport>> Cluster::NewTransport(
    TransportKind kind, std::uint16_t tcp_port) {
  if (kind == TransportKind::kBus)
    return std::shared_ptr<net::Transport>(std::make_shared<net::Network>());
  net::TcpTransportConfig hub_config;
  hub_config.listen_port = tcp_port;
  auto hub = std::make_shared<net::TcpTransport>(hub_config);
  VINELET_RETURN_IF_ERROR(hub->Start());
  return std::shared_ptr<net::Transport>(std::move(hub));
}

Cluster::Cluster(std::shared_ptr<net::Transport> transport,
                 ManagerConfig manager_config, FactoryConfig workers)
    : transport_(std::move(transport)),
      manager_(transport_, manager_config),
      factory_(transport_, FromManager(workers, manager_, manager_config)),
      initial_workers_(workers.initial_workers) {}

Status Cluster::Start(double wait_s) {
  VINELET_RETURN_IF_ERROR(manager_.Start());
  VINELET_RETURN_IF_ERROR(factory_.Start());
  return manager_.WaitForWorkers(initial_workers_, wait_s);
}

void Cluster::Stop() {
  manager_.Stop();
  factory_.Stop();
  if (auto* tcp = dynamic_cast<net::TcpTransport*>(transport_.get()))
    tcp->Shutdown();
}

}  // namespace vinelet::core
