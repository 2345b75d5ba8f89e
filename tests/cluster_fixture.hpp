// Shared plumbing for the runtime suites that run over both transports.
//
// A suite derives from ::testing::TestWithParam<core::TransportKind> and is
// instantiated with
//
//   INSTANTIATE_TEST_SUITE_P(, Suite, kBothTransports, TransportName);
//
// so every case runs on the in-process bus and over loopback TCP, under the
// stable names `Suite.Case/Bus` and `Suite.Case/Tcp`.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "core/cluster.hpp"

namespace vinelet::core {

inline const auto kBothTransports =
    ::testing::Values(TransportKind::kBus, TransportKind::kTcp);

inline const char* TransportLabel(TransportKind kind) {
  return kind == TransportKind::kBus ? "Bus" : "Tcp";
}

inline std::string TransportName(
    const ::testing::TestParamInfo<TransportKind>& info) {
  return TransportLabel(info.param);
}

/// gtest prints the parameter into the test listing (and so into the ctest
/// name); without this it would print the enum's raw bytes.
inline void PrintTo(TransportKind kind, std::ostream* os) {
  *os << TransportLabel(kind);
}

/// Starts a cluster over a fresh transport of `kind`; null (with a recorded
/// test failure) if it does not come up.
inline std::unique_ptr<Cluster> StartTestCluster(TransportKind kind,
                                                 const ManagerConfig& manager,
                                                 const FactoryConfig& workers) {
  auto transport = Cluster::NewTransport(kind);
  if (!transport.ok()) {
    ADD_FAILURE() << "transport: " << transport.status().ToString();
    return nullptr;
  }
  auto cluster = std::make_unique<Cluster>(*transport, manager, workers);
  if (Status started = cluster->Start(); !started.ok()) {
    ADD_FAILURE() << "cluster: " << started.ToString();
    return nullptr;
  }
  return cluster;
}

}  // namespace vinelet::core
