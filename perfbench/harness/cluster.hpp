// The system under test: the real manager and workers in one process, every
// frame crossing a loopback TCP socket.
//
// The manager endpoint lives on a hub TcpTransport; each worker gets its
// own node TcpTransport that dials the hub, exactly the topology of
// vinelet-managerd + N vinelet-workerd, minus the process boundaries.  The
// in-process bus (net::Network) is deliberately not used: deployments run
// over TCP, so that is what the benchmark times.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <memory>
#include <vector>

#include "core/manager.hpp"
#include "core/worker.hpp"
#include "net/tcp_transport.hpp"
#include "serde/function_registry.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

/// Workers per cluster, and the cores each advertises.
constexpr std::size_t kWorkers = 2;
constexpr std::uint32_t kCoresPerWorker = 2;

struct ClusterOptions {
  const vinelet::serde::FunctionRegistry* registry = nullptr;
  /// Library results of at least this many bytes stay on the producing
  /// worker and travel as BlobRefs (0 = by value).
  std::uint64_t ref_results_min_bytes = 0;
  /// Traced run: wrap every transport in a TimedTransport.
  bool timed_transport = false;
};

class TcpCluster {
 public:
  explicit TcpCluster(ClusterOptions options);
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  /// Starts the hub, the manager, every worker node, and waits until all
  /// workers have joined.
  vinelet::Status Start();

  /// Stops manager and workers and joins every transport thread.
  /// Idempotent; the destructor calls it.
  void Stop();

  vinelet::core::Manager& manager() { return *manager_; }
  vinelet::telemetry::Telemetry& telemetry() { return telemetry_; }

  /// Connection counters of the manager's hub (one entry per worker link).
  std::vector<vinelet::net::ConnectionStats> HubConnections() const;
  /// Connection counters of every transport (hub and worker nodes).
  std::vector<vinelet::net::ConnectionStats> AllConnections() const;

  /// Per-call Send/SendMany time and frames handed to the transports
  /// (populated only with timed_transport).
  vinelet::telemetry::Histogram& send_seconds() { return *send_s_; }
  vinelet::telemetry::Counter& frames_sent() { return *frames_; }

 private:
  std::shared_ptr<vinelet::net::Transport> Wrap(
      std::shared_ptr<vinelet::net::TcpTransport> transport);

  ClusterOptions options_;
  vinelet::telemetry::Telemetry telemetry_;
  vinelet::telemetry::Histogram* send_s_ = nullptr;
  vinelet::telemetry::Counter* frames_ = nullptr;
  std::shared_ptr<vinelet::net::TcpTransport> hub_;
  std::vector<std::shared_ptr<vinelet::net::TcpTransport>> nodes_;
  std::vector<std::shared_ptr<vinelet::net::Transport>> wrappers_;
  std::unique_ptr<vinelet::core::Manager> manager_;
  std::vector<std::unique_ptr<vinelet::core::Worker>> workers_;
  bool stopped_ = false;
};


/// Waits until every submitted call has resolved — after which no OnReady
/// callback is still running, so the state callbacks reference may be
/// destroyed.  A cluster that cannot drain within two minutes is broken:
/// the process exits with status 3 rather than free state that late
/// callbacks would still touch.
void DrainOrExit(vinelet::core::Manager& manager);

/// Submits bursts of `burst` calls through `submit` until `library` has a
/// ready instance on every worker (read from QueryStatus).  Fails if a
/// warm-up call fails or the library never spreads.
vinelet::Status WarmLibrary(
    vinelet::core::Manager& manager, const std::string& library,
    std::size_t burst,
    const std::function<vinelet::core::FuturePtr()>& submit);


/// Declares `bytes` of deterministic shared input data (the library's
/// shared context, paper §3.2), broadcasts it to every connected worker,
/// and returns its declaration for AddLibraryInput — instances then stage
/// it from the local replica.  `broadcast_s` receives the broadcast time.
vinelet::Result<vinelet::storage::FileDecl> DistributeSharedData(
    vinelet::core::Manager& manager, const std::string& name,
    const vinelet::Blob& data, double* broadcast_s);

/// Size of the shared input data every workload's library retains; sized
/// so that distributing it dominates set-up time.
constexpr std::uint64_t kSharedDataBytes = 64ull << 20;

/// Deterministic filler of kSharedDataBytes.  Made once per run, before
/// the set-ups, so that setup_s times only the runtime's work.
vinelet::Blob MakeSharedData();

}  // namespace perfbench
