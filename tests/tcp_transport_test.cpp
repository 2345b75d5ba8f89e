// Real-socket transport: hub/node membership over loopback TCP, lazy peer
// dials, write coalescing + backpressure, and fault injection at the socket
// boundary.  The manager + worker runtime over real sockets is covered by
// the Tcp instantiations of runtime_test, dag_test and introspect_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "core/protocol.hpp"
#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/tcp_transport.hpp"

namespace vinelet::net {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<TcpTransport> StartHub(TcpTransportConfig config = {}) {
  auto hub = std::make_shared<TcpTransport>(std::move(config));
  EXPECT_TRUE(hub->Start().ok());
  return hub;
}

std::shared_ptr<TcpTransport> StartNode(std::uint16_t hub_port,
                                        TcpTransportConfig config = {}) {
  config.hub_host = "127.0.0.1";
  config.hub_port = hub_port;
  auto node = std::make_shared<TcpTransport>(std::move(config));
  EXPECT_TRUE(node->Start().ok());
  return node;
}

TEST(TcpTransportTest, HubLocalDelivery) {
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok()) << inbox.status().ToString();
  ASSERT_TRUE(hub->Send(5, kManagerEndpoint, Blob::FromString("local")).ok());
  auto frame = (*inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->sender, 5u);
  EXPECT_EQ(frame->payload.ToString(), "local");
}

TEST(TcpTransportTest, NodeToHubOverRealSocket) {
  auto hub = StartHub();
  auto manager_inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(manager_inbox.ok());

  auto node = StartNode(hub->listen_port());
  auto worker_inbox = node->Register(1);
  ASSERT_TRUE(worker_inbox.ok()) << worker_inbox.status().ToString();

  // Node -> hub, with an attachment that must survive the scatter/gather
  // send path intact.
  const Blob attachment = Blob::FromString("bulk attachment across tcp");
  ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString("hello"),
                         attachment)
                  .ok());
  auto frame = (*manager_inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->sender, 1u);
  EXPECT_EQ(frame->payload.ToString(), "hello");
  EXPECT_EQ(frame->attachment, attachment);

  // Hub -> node reply crosses the same connection.
  ASSERT_TRUE(hub->Send(kManagerEndpoint, 1, Blob::FromString("ack")).ok());
  auto reply = (*worker_inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, kManagerEndpoint);
  EXPECT_EQ(reply->payload.ToString(), "ack");

  node->Shutdown();
  hub->Shutdown();
}

TEST(TcpTransportTest, WorkerToWorkerLazyDial) {
  auto hub = StartHub();
  ASSERT_TRUE(hub->Register(kManagerEndpoint).ok());
  auto node_a = StartNode(hub->listen_port());
  auto node_b = StartNode(hub->listen_port());
  ASSERT_TRUE(node_a->Register(1).ok());
  auto b_inbox = node_b->Register(2);
  ASSERT_TRUE(b_inbox.ok());

  // A learned B's address from the hub directory; the first send dials.
  Status status;
  for (int attempt = 0; attempt < 100; ++attempt) {
    status = node_a->Send(1, 2, Blob::FromString("peer"));
    if (status.ok()) break;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto frame = (*b_inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->sender, 1u);
  EXPECT_EQ(frame->payload.ToString(), "peer");

  // The dial shows up in the connection snapshot with live counters.
  bool saw_peer_conn = false;
  for (const ConnectionStats& stats : node_a->ConnectionsSnapshot())
    saw_peer_conn |= stats.frames_sent > 0 || stats.bytes_sent > 0;
  EXPECT_TRUE(saw_peer_conn);
}

TEST(TcpTransportTest, SendToUnknownEndpointFails) {
  auto hub = StartHub();
  ASSERT_TRUE(hub->Register(kManagerEndpoint).ok());
  EXPECT_EQ(hub->Send(kManagerEndpoint, 99, Blob::FromString("x")).code(),
            ErrorCode::kNotFound);
}

TEST(TcpTransportTest, ManyFramesCoalesceAndArriveInOrder) {
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok());
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(1).ok());

  constexpr int kFrames = 500;
  const auto tag = [](int i) {
    std::string text = "m";
    text += std::to_string(i);
    return text;
  };
  for (int i = 0; i < kFrames; ++i)
    ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString(tag(i)),
                           Blob::FromString(std::string(i % 7, 'x')))
                    .ok());
  for (int i = 0; i < kFrames; ++i) {
    auto frame = (*inbox)->RecvFor(std::chrono::seconds(10));
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload.ToString(), tag(i));
    EXPECT_EQ(frame->attachment.size(), static_cast<std::size_t>(i % 7));
  }
}

TEST(TcpTransportTest, BackpressureStallsAreCountedAndRelease) {
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok());

  TcpTransportConfig config;
  config.send_queue_limit_bytes = 64 * 1024;  // tiny cap to force stalls
  auto node = StartNode(hub->listen_port(), std::move(config));
  ASSERT_TRUE(node->Register(1).ok());

  // Push far more than the cap; the sender must block-and-release rather
  // than error or balloon, and everything must still arrive in order.
  const Blob big(std::vector<std::uint8_t>(16 * 1024, 0x5A));
  constexpr int kFrames = 64;  // 1 MiB total through a 64 KiB window
  std::thread sender([&] {
    for (int i = 0; i < kFrames; ++i)
      ASSERT_TRUE(node->Send(1, kManagerEndpoint,
                             Blob::FromString(std::to_string(i)), big)
                      .ok());
  });
  for (int i = 0; i < kFrames; ++i) {
    auto frame = (*inbox)->RecvFor(std::chrono::seconds(10));
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->payload.ToString(), std::to_string(i));
    EXPECT_EQ(frame->attachment.size(), big.size());
  }
  sender.join();

  std::uint64_t peak = 0;
  for (const ConnectionStats& stats : node->ConnectionsSnapshot())
    peak = std::max(peak, stats.peak_queue_bytes);
  EXPECT_GT(peak, 0u);
}

TEST(TcpTransportTest, DisconnectListenerFiresOnPeerShutdown) {
  auto hub = StartHub();
  ASSERT_TRUE(hub->Register(kManagerEndpoint).ok());
  std::atomic<int> disconnects{0};
  std::atomic<EndpointId> last{0};
  hub->SetDisconnectListener([&](EndpointId id) {
    last = id;
    ++disconnects;
  });

  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(7).ok());
  // Abrupt shutdown: the hub observes the TCP teardown and reports the
  // endpoint dead, which is how the manager learns of killed workers.
  node->Shutdown();
  for (int i = 0; i < 200 && disconnects.load() == 0; ++i)
    std::this_thread::sleep_for(10ms);
  EXPECT_GE(disconnects.load(), 1);
  EXPECT_EQ(last.load(), 7u);
  EXPECT_FALSE(hub->Connected(7));
}

TEST(TcpTransportTest, GracefulUnregisterNotifiesHub) {
  auto hub = StartHub();
  ASSERT_TRUE(hub->Register(kManagerEndpoint).ok());
  std::atomic<int> disconnects{0};
  hub->SetDisconnectListener([&](EndpointId) { ++disconnects; });
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(3).ok());
  node->Unregister(3);
  for (int i = 0; i < 200 && disconnects.load() == 0; ++i)
    std::this_thread::sleep_for(10ms);
  EXPECT_GE(disconnects.load(), 1);
}

TEST(TcpTransportTest, FaultInjectionDropsAtTheSocketBoundary) {
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok());
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(1).ok());

  FaultPlan plan;
  plan.seed = 7;
  plan.link.drop_p = 1.0;  // every data frame dropped before the socket
  auto fault = std::make_shared<FaultInjector>(plan);
  node->SetFaultInjector(fault);

  // Drops look like success to the sender; nothing reaches the hub.
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString("gone")).ok());
  EXPECT_FALSE((*inbox)->RecvFor(200ms).has_value());
  EXPECT_EQ(fault->stats().dropped, 10u);

  // Clearing the injector restores delivery on the same connection.
  node->SetFaultInjector(nullptr);
  ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString("back")).ok());
  auto frame = (*inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.ToString(), "back");
}

TEST(TcpTransportTest, CorruptInlineArgumentRejectedOnBusAndTcp) {
  // One bit flipped inside a RunInvocation's inline argument bytes leaves
  // the message well-formed: without the frame CRC a worker would run the
  // call on the wrong argument.  With it, both transports deliver a frame
  // that DecodeFrame rejects with kDataLoss.
  const std::string arg(64, 'q');
  const core::RunInvocationMsg run{5, 9, "f", Blob::FromString(arg), {}, {}};
  const core::WireFrame wire = core::EncodeFrame(run);
  ASSERT_TRUE(wire.attachment.empty());
  std::vector<std::uint8_t> bytes(wire.payload.span().begin(),
                                  wire.payload.span().end());
  auto at = std::search(bytes.begin(), bytes.end(), arg.begin(), arg.end());
  ASSERT_NE(at, bytes.end());
  at[static_cast<long>(arg.size() / 2)] ^= 0x04;
  const Blob damaged(std::move(bytes));

  // The raw decoder, which checks structure only, accepts a different call.
  auto raw = core::DecodeMessage(
      damaged.Slice(0, damaged.size() - core::kFrameTrailerBytes));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_NE(std::get<core::RunInvocationMsg>(*raw).args, run.args);

  const auto expect_rejected = [&](Transport& sender, EndpointId from,
                                   Inbox& inbox) {
    Status sent;
    for (int attempt = 0; attempt < 100; ++attempt) {
      sent = sender.Send(from, 2, damaged);
      if (sent.ok()) break;
      std::this_thread::sleep_for(20ms);  // TCP: the hub learns endpoint 2
    }
    ASSERT_TRUE(sent.ok()) << sent.ToString();
    auto frame = inbox.RecvFor(std::chrono::seconds(5));
    ASSERT_TRUE(frame.has_value());
    auto decoded = core::DecodeFrame(*frame);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), ErrorCode::kDataLoss);

    // The intact frame still decodes to the original call.
    ASSERT_TRUE(sender.Send(from, 2, wire.payload).ok());
    auto intact = inbox.RecvFor(std::chrono::seconds(5));
    ASSERT_TRUE(intact.has_value());
    auto good = core::DecodeFrame(*intact);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_EQ(std::get<core::RunInvocationMsg>(*good).args, run.args);
  };

  auto bus = std::make_shared<Network>();
  auto bus_inbox = bus->Register(2);
  ASSERT_TRUE(bus_inbox.ok());
  expect_rejected(*bus, 1, **bus_inbox);

  auto hub = StartHub();
  ASSERT_TRUE(hub->Register(kManagerEndpoint).ok());
  auto node = StartNode(hub->listen_port());
  auto node_inbox = node->Register(2);
  ASSERT_TRUE(node_inbox.ok());
  expect_rejected(*hub, kManagerEndpoint, **node_inbox);
  node->Shutdown();
  hub->Shutdown();
}

TEST(TcpTransportTest, FaultInjectionDelaysReorderFrames) {
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok());
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(1).ok());

  FaultPlan plan;
  plan.link.delay_p = 1.0;
  plan.link.delay_min_s = 0.05;
  plan.link.delay_max_s = 0.05;
  node->SetFaultInjector(std::make_shared<FaultInjector>(plan));
  ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString("held")).ok());
  node->SetFaultInjector(nullptr);
  ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString("fast")).ok());

  auto first = (*inbox)->RecvFor(std::chrono::seconds(5));
  auto second = (*inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->payload.ToString(), "fast");
  EXPECT_EQ(second->payload.ToString(), "held");
}

TEST(TcpTransportTest, PartitionIsSilenceNotError) {
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok());
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(1).ok());

  auto fault = std::make_shared<FaultInjector>(FaultPlan{});
  node->SetFaultInjector(fault);
  fault->Partition(1, kManagerEndpoint, true);
  ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString("void")).ok());
  EXPECT_FALSE((*inbox)->RecvFor(200ms).has_value());
  fault->Partition(1, kManagerEndpoint, false);
  ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString("healed")).ok());
  auto frame = (*inbox)->RecvFor(std::chrono::seconds(5));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload.ToString(), "healed");
}

}  // namespace
}  // namespace vinelet::net
