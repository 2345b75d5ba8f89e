// Factory: acquires and releases workers.
//
// In TaskVine the factory process keeps the requested number of workers
// alive in the cluster (paper §3.6); here it owns Worker threads.  Tests use
// it for fault injection (KillWorker) and elasticity (SpawnWorker), matching
// the paper's worker-churn scenarios.
//
// Each worker's transport follows from the one the factory is given:
//
//  * a net::TcpTransport hub (is_hub()) — every spawned worker gets its own
//    loopback node transport that dials the hub's listen_port(), owned by
//    the factory, so every frame crosses a real socket.  KillWorker shuts
//    the node down without a Goodbye: the hub observes the same socket
//    teardown as a crashed process.  Stop leaves gracefully (the Goodbye
//    reaches the hub before the node closes).
//  * anything else (the in-process net::Network) — shared by every worker;
//    KillWorker unregisters the endpoint without a Goodbye.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "core/worker.hpp"
#include "net/network.hpp"
#include "net/tcp_transport.hpp"

namespace vinelet::core {

struct FactoryConfig {
  std::size_t initial_workers = 1;
  Resources worker_resources{32, 64 * 1024, 64 * 1024};
  std::uint64_t cache_capacity_bytes = 0;
  const serde::FunctionRegistry* registry = nullptr;
  /// Shared telemetry handed to every spawned worker (usually the same
  /// instance the manager reports into).  Null = each worker owns its own.
  telemetry::Telemetry* telemetry = nullptr;
  /// Fault injector handed to every spawned worker (chaos harness).
  std::shared_ptr<net::FaultInjector> fault;
  /// Pass-by-reference results threshold handed to every spawned worker
  /// (WorkerConfig::ref_results_min_bytes); 0 = results ship by value.
  std::uint64_t ref_results_min_bytes = 0;
};

class Factory {
 public:
  Factory(std::shared_ptr<net::Transport> network, FactoryConfig config);
  ~Factory() { Stop(); }

  Factory(const Factory&) = delete;
  Factory& operator=(const Factory&) = delete;

  /// Spawns the initial workers (endpoint ids 1..initial_workers).
  Status Start();

  /// Gracefully stops every worker.
  void Stop();

  /// Adds one more worker; returns its id.
  Result<WorkerId> SpawnWorker();

  /// Abruptly kills a worker (no Goodbye) — fault injection.
  Status KillWorker(WorkerId id);

  std::vector<WorkerId> WorkerIds() const;
  Worker* GetWorker(WorkerId id);

 private:
  /// A spawned worker and, on TCP, the node transport it alone uses.
  struct Member {
    std::shared_ptr<net::TcpTransport> node;  // null on a shared transport
    std::unique_ptr<Worker> worker;
  };

  Result<Member> TakeMember(WorkerId id);
  /// Graceful leave: Goodbye, then (on TCP) wait until the hub has seen it
  /// before closing the node's sockets.
  void Retire(Member& member);

  std::shared_ptr<net::Transport> network_;
  std::shared_ptr<net::TcpTransport> hub_;  // set when network_ is a TCP hub
  FactoryConfig config_;

  mutable std::mutex mu_;
  std::map<WorkerId, Member> workers_;
  WorkerId next_id_ = 1;
};

}  // namespace vinelet::core
