// Cluster: a manager and the factory that keeps its workers alive, over one
// transport — the single way a "manager + workers" deployment is stood up
// inside one process (tests, benches, examples, the demo CLIs).
//
// The transport decides the shape (see Factory): on the in-process bus every
// worker shares it; on a TCP hub every worker gets its own loopback node, so
// the same code exercises the socket path that vinelet-managerd and
// vinelet-workerd deploy.  The manager's registry and telemetry are handed
// to every worker, so manager and worker metrics and spans land together.
#pragma once

#include <cstdint>
#include <memory>

#include "core/factory.hpp"
#include "core/manager.hpp"

namespace vinelet::core {

/// The fabric a cluster runs over.
enum class TransportKind { kBus, kTcp };

class Cluster {
 public:
  /// A fresh transport of `kind`: the in-process bus, or a started TCP hub
  /// listening on 127.0.0.1:`tcp_port` (0 = kernel-assigned).
  static Result<std::shared_ptr<net::Transport>> NewTransport(
      TransportKind kind, std::uint16_t tcp_port = 0);

  /// `workers.registry` and `workers.telemetry` are ignored: every worker
  /// uses the manager's registry and telemetry.
  Cluster(std::shared_ptr<net::Transport> transport,
          ManagerConfig manager_config, FactoryConfig workers);
  ~Cluster() { Stop(); }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Starts the manager and the initial workers, and waits until the
  /// manager sees all of them.
  Status Start(double wait_s = 30.0);

  /// Stops the manager, then the workers, then (on TCP) the hub.
  /// Idempotent.
  void Stop();

  Manager& manager() { return manager_; }
  Factory& factory() { return factory_; }
  net::Transport& transport() { return *transport_; }

 private:
  std::shared_ptr<net::Transport> transport_;
  Manager manager_;
  Factory factory_;
  std::size_t initial_workers_ = 0;
};

}  // namespace vinelet::core
