// vinelet-workerd: one worker process of a multi-process vinelet cluster.
//
// Dials the hub (the vinelet-managerd process), registers its endpoint over
// TCP, and serves tasks, library installs, and invocations until it is told
// to stop — by SIGINT/SIGTERM, by the manager's Shutdown message (the
// Worker handles that internally), or by losing the hub connection.
//
//   $ ./vinelet-workerd --hub 127.0.0.1:7070 --id 1 [--cores N]
//                       [--memory-mb N] [--cache-bytes N]
//                       [--ref-min-bytes N] [--listen-port P]
//                       [--fault-seed N] [--fault-delay-p P]
//                       [--fault-delay-min-ms M] [--fault-delay-max-ms M]
//                       [--fault-dup-p P] [--partition-after N]
//
// The --fault-* flags install a net::FaultInjector on this process's
// transport, so delays and duplicates are applied at the real socket
// boundary (the moment bytes would be committed to the wire).
// --partition-after N symmetrically partitions this worker from the hub
// once it has finished N library invocations — silence, not an error —
// which the cross-process soak pairs with a SIGKILL to exercise the
// manager's death recovery.  Counting work instead of seconds makes the
// partition land mid-workload however fast the machine is.
//
// The function registry is the shared demo registry (see demo_registry.hpp):
// every process of the deployment must register identical functions, or a
// worker would accept invocations it resolves differently.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "apps/demo_registry.hpp"
#include "core/worker.hpp"
#include "net/tcp_transport.hpp"
#include "telemetry/telemetry.hpp"

using namespace vinelet;

namespace {

std::atomic<bool> g_stop{false};
std::mutex g_mu;
std::condition_variable g_cv;

void HandleSignal(int) {
  g_stop.store(true);
  g_cv.notify_all();
}

bool ParseHostPort(const std::string& text, std::string& host,
                   std::uint16_t& port) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  host = text.substr(0, colon);
  const long parsed = std::atol(text.c_str() + colon + 1);
  if (parsed <= 0 || parsed > 65535) return false;
  port = static_cast<std::uint16_t>(parsed);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --hub HOST:PORT --id N [--cores N] [--memory-mb N]"
               " [--cache-bytes N] [--ref-min-bytes N] [--listen-port P]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string hub_host;
  std::uint16_t hub_port = 0;
  core::WorkerConfig worker_config;
  worker_config.id = 0;
  worker_config.resources = core::Resources{4, 8 * 1024, 8 * 1024};
  std::uint16_t listen_port = 0;
  net::FaultPlan fault_plan;
  std::uint64_t partition_after = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--hub") == 0 && i + 1 < argc) {
      if (!ParseHostPort(argv[++i], hub_host, hub_port)) return Usage(argv[0]);
    } else if (std::strcmp(arg, "--id") == 0 && i + 1 < argc) {
      worker_config.id = static_cast<core::WorkerId>(std::atoll(argv[++i]));
    } else if (std::strcmp(arg, "--cores") == 0 && i + 1 < argc) {
      worker_config.resources.cores =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(arg, "--memory-mb") == 0 && i + 1 < argc) {
      worker_config.resources.memory_mb =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(arg, "--cache-bytes") == 0 && i + 1 < argc) {
      worker_config.cache_capacity_bytes =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(arg, "--ref-min-bytes") == 0 && i + 1 < argc) {
      worker_config.ref_results_min_bytes =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(arg, "--listen-port") == 0 && i + 1 < argc) {
      listen_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(arg, "--fault-seed") == 0 && i + 1 < argc) {
      fault_plan.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(arg, "--fault-delay-p") == 0 && i + 1 < argc) {
      fault_plan.link.delay_p = std::atof(argv[++i]);
    } else if (std::strcmp(arg, "--fault-delay-min-ms") == 0 && i + 1 < argc) {
      fault_plan.link.delay_min_s = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(arg, "--fault-delay-max-ms") == 0 && i + 1 < argc) {
      fault_plan.link.delay_max_s = std::atof(argv[++i]) / 1000.0;
    } else if (std::strcmp(arg, "--fault-dup-p") == 0 && i + 1 < argc) {
      fault_plan.link.dup_p = std::atof(argv[++i]);
    } else if (std::strcmp(arg, "--partition-after") == 0 && i + 1 < argc) {
      partition_after = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      return Usage(argv[0]);
    }
  }
  if (hub_host.empty() || worker_config.id == 0) return Usage(argv[0]);

  serde::FunctionRegistry registry;
  if (Status status = apps::RegisterDemoFunctions(registry); !status.ok()) {
    std::fprintf(stderr, "register failed: %s\n", status.ToString().c_str());
    return 1;
  }
  worker_config.registry = &registry;
  telemetry::Telemetry telemetry;
  worker_config.telemetry = &telemetry;

  net::TcpTransportConfig net_config;
  net_config.listen_port = listen_port;
  net_config.hub_host = hub_host;
  net_config.hub_port = hub_port;
  auto transport = std::make_shared<net::TcpTransport>(net_config);
  if (Status status = transport->Start(); !status.ok()) {
    std::fprintf(stderr, "transport start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::shared_ptr<net::FaultInjector> injector;
  if (!fault_plan.Quiet() || partition_after > 0) {
    injector = std::make_shared<net::FaultInjector>(fault_plan);
    transport->SetFaultInjector(injector);
  }

  // Exit when the hub goes away: with the hub link down this worker cannot
  // receive work or report results, so lingering only hides failures.
  transport->SetDisconnectListener([](net::EndpointId id) {
    if (id == net::kManagerEndpoint) {
      std::fprintf(stderr, "vinelet-workerd: hub connection lost\n");
      g_stop.store(true);
      g_cv.notify_all();
    }
  });

  core::Worker worker(transport, worker_config);
  if (Status status = worker.Start(); !status.ok()) {
    std::fprintf(stderr, "worker start failed: %s\n",
                 status.ToString().c_str());
    transport->Shutdown();
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("vinelet-workerd: worker %llu up (hub %s:%u, listening on %u)\n",
              static_cast<unsigned long long>(worker_config.id),
              hub_host.c_str(), hub_port, transport->listen_port());
  std::fflush(stdout);

  std::thread partitioner;
  if (partition_after > 0 && injector != nullptr) {
    const telemetry::Counter& served =
        telemetry.metrics.GetCounter("library.invocations");
    partitioner = std::thread([&] {
      std::unique_lock<std::mutex> lock(g_mu);
      while (!g_stop.load() && served.Value() < partition_after)
        g_cv.wait_for(lock, std::chrono::milliseconds(1));
      if (g_stop.load()) return;
      injector->Partition(worker_config.id, net::kManagerEndpoint, true);
      std::fprintf(stderr, "vinelet-workerd: partitioned from hub\n");
    });
  }

  {
    std::unique_lock<std::mutex> lock(g_mu);
    g_cv.wait(lock, [] { return g_stop.load(); });
  }
  if (partitioner.joinable()) partitioner.join();

  // Teardown order matters: stop the worker (joins its inbox loop and task
  // threads, sends Goodbye) while the transport is still up, then shut the
  // transport down (joins the event loop).
  worker.Stop();
  transport->SetDisconnectListener(nullptr);
  transport->Shutdown();
  std::printf("vinelet-workerd: worker %llu stopped (%llu task(s) executed)\n",
              static_cast<unsigned long long>(worker_config.id),
              static_cast<unsigned long long>(worker.tasks_executed()));
  return 0;
}
