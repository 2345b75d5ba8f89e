#include "core/factory.hpp"

#include <chrono>
#include <thread>

namespace vinelet::core {

Factory::Factory(std::shared_ptr<net::Transport> network, FactoryConfig config)
    : network_(std::move(network)), config_(config) {
  auto tcp = std::dynamic_pointer_cast<net::TcpTransport>(network_);
  if (tcp != nullptr && tcp->is_hub()) hub_ = std::move(tcp);
}

Status Factory::Start() {
  for (std::size_t i = 0; i < config_.initial_workers; ++i) {
    auto spawned = SpawnWorker();
    if (!spawned.ok()) return spawned.status();
  }
  return Status::Ok();
}

void Factory::Stop() {
  std::map<WorkerId, Member> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers.swap(workers_);
  }
  for (auto& [_, member] : workers) Retire(member);
}

Result<WorkerId> Factory::SpawnWorker() {
  std::lock_guard<std::mutex> lock(mu_);
  WorkerConfig config;
  config.id = next_id_++;
  config.resources = config_.worker_resources;
  config.cache_capacity_bytes = config_.cache_capacity_bytes;
  config.registry = config_.registry;
  config.telemetry = config_.telemetry;
  config.fault = config_.fault;
  config.ref_results_min_bytes = config_.ref_results_min_bytes;
  Member member;
  std::shared_ptr<net::Transport> transport = network_;
  if (hub_ != nullptr) {
    net::TcpTransportConfig node_config;
    node_config.hub_host = "127.0.0.1";
    node_config.hub_port = hub_->listen_port();
    member.node = std::make_shared<net::TcpTransport>(node_config);
    VINELET_RETURN_IF_ERROR(member.node->Start());
    transport = member.node;
  }
  member.worker = std::make_unique<Worker>(std::move(transport), config);
  VINELET_RETURN_IF_ERROR(member.worker->Start());
  workers_.emplace(config.id, std::move(member));
  return config.id;
}

Result<Factory::Member> Factory::TakeMember(WorkerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(id);
  if (it == workers_.end())
    return NotFoundError("no such worker: " + std::to_string(id));
  Member member = std::move(it->second);
  workers_.erase(it);
  return member;
}

void Factory::Retire(Member& member) {
  const WorkerId id = member.worker->id();
  member.worker->Stop();
  if (member.node == nullptr) return;
  // Shutdown drops queued frames, so let the Goodbye reach the hub first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (hub_->Connected(id) && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  member.node->Shutdown();
}

Status Factory::KillWorker(WorkerId id) {
  auto member = TakeMember(id);
  if (!member.ok()) return member.status();
  // On TCP the node's sockets close first, so no Goodbye can leave.
  if (member->node != nullptr) member->node->Shutdown();
  member->worker->Kill();
  return Status::Ok();
}

std::vector<WorkerId> Factory::WorkerIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WorkerId> ids;
  ids.reserve(workers_.size());
  for (const auto& [id, _] : workers_) ids.push_back(id);
  return ids;
}

Worker* Factory::GetWorker(WorkerId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : it->second.worker.get();
}

}  // namespace vinelet::core
