// Real-socket transport: hub/node membership over loopback TCP, lazy peer
// dials, write coalescing + backpressure, and fault injection at the socket
// boundary.  The manager + worker runtime over real sockets is covered by
// the Tcp instantiations of runtime_test, dag_test and introspect_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

TEST(TcpTransportTest, ConcurrentSendersKeepEachSendersOrder) {
  // A sender writes its frames itself when the connection is idle and
  // queues them for the loop otherwise.  With several threads mixing Send
  // and SendMany on one connection (some frames large enough to fill the
  // socket), every frame arrives exactly once and each sender's in order.
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok());
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(1).ok());

  constexpr int kSenders = 4;
  constexpr int kFrames = 1500;
  const Blob bulk(std::vector<std::uint8_t>(256 * 1024, 0x3C));
  const auto parcel = [&](int sender, int i) {
    return Parcel{
        Blob::FromString(std::to_string(sender) + ":" + std::to_string(i)),
        i % 50 == 0 ? bulk : Blob()};
  };
  std::atomic<int> failed_sends{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < kSenders; ++t) {
    senders.emplace_back([&, t] {
      int i = 0;
      while (i < kFrames) {
        Status status;
        if (i % 3 == 0) {
          Parcel one = parcel(t, i++);
          status = node->Send(1, kManagerEndpoint, std::move(one.payload),
                              std::move(one.attachment));
        } else {
          std::vector<Parcel> batch;
          for (int n = 1 + i % 7; n > 0 && i < kFrames; --n)
            batch.push_back(parcel(t, i++));
          status = node->SendMany(1, kManagerEndpoint, std::move(batch));
        }
        if (!status.ok()) ++failed_sends;
      }
    });
  }
  std::vector<int> next(kSenders, 0);
  for (int n = 0; n < kSenders * kFrames; ++n) {
    auto frame = (*inbox)->RecvFor(std::chrono::seconds(10));
    ASSERT_TRUE(frame.has_value()) << "frame " << n;
    const std::string tag = frame->payload.ToString();
    const std::size_t colon = tag.find(':');
    ASSERT_NE(colon, std::string::npos);
    const int sender = std::stoi(tag.substr(0, colon));
    const int index = std::stoi(tag.substr(colon + 1));
    ASSERT_GE(sender, 0);
    ASSERT_LT(sender, kSenders);
    ASSERT_EQ(index, next[static_cast<std::size_t>(sender)]) << tag;
    ++next[static_cast<std::size_t>(sender)];
    EXPECT_EQ(frame->attachment.size(), index % 50 == 0 ? bulk.size() : 0u);
  }
  for (auto& sender : senders) sender.join();
  EXPECT_EQ(failed_sends.load(), 0);
  EXPECT_FALSE((*inbox)->RecvFor(100ms).has_value()) << "a frame came twice";
}

TEST(TcpTransportTest, FrameLargerThanTheSocketBufferFinishesOnTheLoop) {
  // The sender's own write of a 32 MiB attachment stops when the socket
  // buffer is full; the rest goes out from the event loop.  The frame
  // arrives whole, and a frame sent after it arrives after it.
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok());
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(1).ok());

  std::vector<std::uint8_t> bytes(32u << 20);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 11);
  const Blob big(std::move(bytes));
  ASSERT_TRUE(
      node->Send(1, kManagerEndpoint, Blob::FromString("big"), big).ok());
  ASSERT_TRUE(node->Send(1, kManagerEndpoint, Blob::FromString("after")).ok());

  auto first = (*inbox)->RecvFor(std::chrono::seconds(30));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->payload.ToString(), "big");
  EXPECT_TRUE(first->attachment == big);
  auto second = (*inbox)->RecvFor(std::chrono::seconds(10));
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->payload.ToString(), "after");
}

TEST(TcpTransportTest, SendManyUnderDropsDeliversTheRestInOrder) {
  // SendMany judges each parcel with the fault injector, as Send does: the
  // dropped ones vanish and the survivors still arrive in order.
  auto hub = StartHub();
  auto inbox = hub->Register(kManagerEndpoint);
  ASSERT_TRUE(inbox.ok());
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(1).ok());

  FaultPlan plan;
  plan.seed = 11;
  plan.link.drop_p = 0.1;
  auto fault = std::make_shared<FaultInjector>(plan);
  node->SetFaultInjector(fault);
  constexpr int kParcels = 40;
  std::vector<Parcel> parcels;
  for (int i = 0; i < kParcels; ++i)
    parcels.push_back(Parcel{Blob::FromString(std::to_string(i)), Blob()});
  ASSERT_TRUE(node->SendMany(1, kManagerEndpoint, std::move(parcels)).ok());
  const std::uint64_t dropped = fault->stats().dropped;
  ASSERT_GE(dropped, 1u);
  ASSERT_LT(dropped, static_cast<std::uint64_t>(kParcels));

  int last = -1;
  for (std::uint64_t n = 0; n < kParcels - dropped; ++n) {
    auto frame = (*inbox)->RecvFor(std::chrono::seconds(5));
    ASSERT_TRUE(frame.has_value()) << "survivor " << n;
    const int index = std::stoi(frame->payload.ToString());
    EXPECT_GT(index, last);
    last = index;
  }
  EXPECT_FALSE((*inbox)->RecvFor(200ms).has_value());
}

TEST(TcpTransportTest, DeadPeerGivesSendersSilenceAndOneDisconnect) {
  // The hub streams frames to a node from two threads, which write them
  // themselves whenever the connection is idle, while the node dies.  A
  // send that meets the dead socket reports nothing (like a packet to a
  // dead host) until the hub drops the route (kNotFound); no sender hangs,
  // and the disconnect listener fires once for the endpoint.
  auto hub = StartHub();
  ASSERT_TRUE(hub->Register(kManagerEndpoint).ok());
  std::atomic<int> disconnects{0};
  hub->SetDisconnectListener([&](EndpointId id) {
    if (id == 2) ++disconnects;
  });
  auto node = StartNode(hub->listen_port());
  ASSERT_TRUE(node->Register(2).ok());

  const Blob chunk(std::vector<std::uint8_t>(4096, 0x11));
  std::atomic<int> delivered{0};
  std::atomic<int> errors{0};
  std::atomic<int> ended_by_not_found{0};
  std::vector<std::thread> senders;
  for (int t = 0; t < 2; ++t) {
    senders.emplace_back([&] {
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      while (std::chrono::steady_clock::now() < deadline) {
        Status status =
            hub->Send(kManagerEndpoint, 2, Blob::FromString("x"), chunk);
        if (status.code() == ErrorCode::kNotFound) {
          ++ended_by_not_found;
          return;
        }
        if (status.ok())
          ++delivered;
        else
          ++errors;
      }
    });
  }
  std::this_thread::sleep_for(20ms);
  node->Shutdown();
  for (auto& sender : senders) sender.join();
  EXPECT_GT(delivered.load(), 0);
  EXPECT_EQ(ended_by_not_found.load(), 2) << "a sender hung on the dead peer";
  EXPECT_EQ(errors.load(), 0);
  for (int i = 0; i < 200 && disconnects.load() == 0; ++i)
    std::this_thread::sleep_for(10ms);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(disconnects.load(), 1);
  EXPECT_FALSE(hub->Connected(2));
  hub->SetDisconnectListener(nullptr);
}

}  // namespace
}  // namespace vinelet::net
