// Real-socket transport backend: epoll event loop + length-prefixed framing.
//
// Topology.  Every process runs one TcpTransport and listens on a TCP port.
// One process is the *hub* (the one hosting the manager endpoint): it is
// dialed by every node, keeps the authoritative endpoint->address directory,
// and pushes directory snapshots (kPeers frames) to all nodes whenever
// membership changes.  Nodes dial peers lazily — the first Send to an
// endpoint hosted elsewhere opens (or reuses) a connection to that
// endpoint's advertised address.  That matches the traffic pattern of the
// runtime: every node talks to the manager constantly, and worker<->worker
// connections appear only when chunk transfers or peer blob fetches are
// scheduled between the pair.
//
// Event loop.  A single thread owns epoll, reads every socket, and makes
// every connection state transition (connect, close).  Writes are shared:
// Send() resolves the route under the transport mutex and appends an
// OutFrame to the connection's output queue; when that queue was empty and
// the socket is connected with no EPOLLOUT wait armed, the calling thread
// writes the frames itself, still under the mutex, and the loop is woken
// (via an eventfd) only for bytes the socket would not take or for a write
// that failed.  Otherwise the loop writes them.  Every write happens under
// the mutex and from the queue's front, so frames on one connection stay
// in order.  Writes gather with writev — each frame contributes up to
// three iovecs (header / payload / attachment), and multiple queued frames
// coalesce into one syscall — so bulk attachment Blobs are scattered
// straight from their refcounted buffers, never copied into a contiguous
// send buffer.  SendMany queues a whole run of frames under one lock hold
// and writes them with one syscall.
//
// Backpressure.  Each connection's output queue is capped
// (TcpTransportConfig::send_queue_limit_bytes).  A Send that would exceed
// the cap blocks the *caller* until the socket drains (stalls are counted
// in ConnectionStats::backpressure_stalls), so one slow peer throttles its
// senders instead of ballooning memory.  Frames the event loop itself
// originates (handshake, directory pushes) bypass the cap — they are tiny
// and must never deadlock the loop.
//
// Faults.  An installed FaultInjector is consulted at the send boundary —
// the moment bytes would be committed to a socket — with the same semantics
// as the in-process bus: drops and partitions return Ok() (silence, not an
// error), corruption flips a bit in a deep copy, delays park the frame in
// the loop's timer heap.  This is what lets the chaos soak run unmodified
// against real sockets.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/framing.hpp"
#include "net/transport.hpp"

namespace vinelet::net {

struct TcpTransportConfig {
  /// Address this process listens on.  Port 0 = kernel-assigned (tests);
  /// the bound port is readable via listen_port() after Start().
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;

  /// Hub address.  Empty host = this process *is* the hub.
  std::string hub_host;
  std::uint16_t hub_port = 0;

  /// Host nodes advertise to peers for inbound dials.  Defaults to
  /// listen_host; set it when listening on 0.0.0.0 behind a known address.
  std::string advertise_host;

  /// Per-connection output queue cap; Sends block above it.
  std::size_t send_queue_limit_bytes = std::size_t{64} << 20;

  /// Wire-level sanity caps (see FramingLimits).
  FramingLimits framing;

  /// How long Register() waits for the hub to acknowledge the endpoint
  /// (first directory snapshot containing it) before failing.
  double register_timeout_s = 10.0;
};

/// Real-socket Transport backend.  Construct, Start(), then use through the
/// Transport interface; Shutdown() (or destruction) joins the event loop.
class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportConfig config = {});
  ~TcpTransport() override;

  /// Binds the listen socket, connects to the hub (when a node), and starts
  /// the event loop.  Must be called once before any other method.
  Status Start();

  /// Stops the event loop, closes every socket and inbox, and unblocks any
  /// Send stalled on backpressure.  Idempotent.
  void Shutdown();

  bool is_hub() const noexcept { return config_.hub_host.empty(); }
  /// The actually-bound listen port (resolves port 0).
  std::uint16_t listen_port() const noexcept { return bound_port_; }

  // Transport interface -----------------------------------------------------
  Result<std::shared_ptr<Inbox>> Register(EndpointId id,
                                          std::size_t capacity = 0) override;
  void Unregister(EndpointId id) override;
  bool Connected(EndpointId id) const override;
  Status Send(EndpointId from, EndpointId to, Blob payload,
              Blob attachment = Blob()) override;
  Status SendMany(EndpointId from, EndpointId to,
                  std::vector<Parcel> parcels) override;
  std::vector<ConnectionStats> ConnectionsSnapshot() const override;

 private:
  struct Addr {
    std::string host;
    std::uint16_t port = 0;
    std::string Key() const { return host + ":" + std::to_string(port); }
  };

  /// One frame queued for a socket.  Header, payload, and attachment stay
  /// separate buffers until the writev syscall gathers them.
  struct OutFrame {
    std::array<std::uint8_t, kWireHeaderSize> header{};
    Blob payload;
    Blob attachment;
    std::size_t TotalBytes() const {
      return kWireHeaderSize + payload.size() + attachment.size();
    }
  };

  struct Conn {
    int fd = -1;
    std::string remote_addr;   // peer socket address, for stats
    std::string dial_key;      // Addr::Key() this conn was dialed to ("" inbound)
    bool connecting = false;   // nonblocking connect() still in flight
    bool want_write = false;   // EPOLLOUT currently armed
    bool write_failed = false;  // a write failed; the loop will close it
    bool is_hub_link = false;  // node side: the connection to the hub
    std::set<EndpointId> endpoints;  // remote endpoints reached via this conn
    FrameDecoder decoder;

    std::deque<OutFrame> outq;
    std::size_t outq_bytes = 0;
    std::size_t front_offset = 0;  // bytes of outq.front() already written

    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t peak_queue_bytes = 0;
    std::uint64_t backpressure_stalls = 0;
  };

  /// A frame parked by an injected delay, re-sent when due.
  struct DelayedSend {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq = 0;
    EndpointId from = 0;
    EndpointId to = 0;
    Blob payload;
    Blob attachment;
    struct Later {
      bool operator()(const DelayedSend& a, const DelayedSend& b) const {
        return a.due != b.due ? a.due > b.due : a.seq > b.seq;
      }
    };
  };

  // --- event loop (all private methods below run on loop_thread_ unless
  // --- noted; mu_ is held where stated in the definitions)
  void EventLoop();
  void HandleListener();
  void HandleConn(int fd, std::uint32_t events);
  void ReadConn(std::shared_ptr<Conn> conn);
  void FlushConn(Conn& conn);  // mu_ held
  void CloseConn(int fd, const char* why);
  void ProcessFrame(const std::shared_ptr<Conn>& conn, DecodedWireFrame frame);
  void HandleHello(const std::shared_ptr<Conn>& conn,
                   const DecodedWireFrame& frame);
  void HandlePeers(const DecodedWireFrame& frame);
  void HandleGoodbye(const std::shared_ptr<Conn>& conn,
                     const DecodedWireFrame& frame);
  void BroadcastDirectory();  // hub only; mu_ held
  void PumpDelayed();

  // --- shared helpers (any thread)
  /// Applies the injector's verdict to one parcel: appends the copies to
  /// send now to `out`, parks delayed ones in the timer heap, drops lost
  /// ones.
  void JudgeParcel(FaultInjector& fault, EndpointId from, EndpointId to,
                   Parcel parcel, std::vector<Parcel>& out);
  /// Delivers parcels that already passed the fault injector, in order:
  /// locally, or queued on the route's connection under one mu_ hold and
  /// written from this thread when nothing is queued ahead of them.
  Status SendParcels(EndpointId from, EndpointId to,
                     std::vector<Parcel> parcels);
  /// True when a sender may write to `conn` itself: connected, no failed
  /// write, and no EPOLLOUT wait armed (so the loop is not due to write).
  static bool Writable(const Conn& conn);  // mu_ held
  /// Gets a sender's queued frames moving: writes them here when
  /// `write_here`, and returns whether the loop must be woken (bytes left
  /// over, or a failed write for it to close).
  bool HandOver(Conn& conn, bool write_here);  // mu_ held
  Status EnqueueRemote(EndpointId from, EndpointId to, WireKind kind,
                       Blob payload, Blob attachment, bool blockable);
  Status DeliverLocal(const std::shared_ptr<Inbox>& inbox, EndpointId from,
                      Blob payload, Blob attachment);
  void EnqueueControl(Conn& conn, WireKind kind, EndpointId sender,
                      std::vector<std::uint8_t> body);  // mu_ held
  Result<std::shared_ptr<Conn>> RouteTo(EndpointId to);  // mu_ held (lock)
  Result<std::shared_ptr<Conn>> DialLocked(const Addr& addr);  // mu_ held
  void SendHelloLocked(Conn& conn);
  std::vector<std::uint8_t> EncodeDirectoryLocked() const;
  void ArmWrite(Conn& conn, bool enable);  // mu_ held
  void WakeLoop();
  void DropRoutesVia(int fd, std::vector<EndpointId>* lost);  // mu_ held

  TcpTransportConfig config_;
  std::uint16_t bound_port_ = 0;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: caller threads kick the loop after enqueue
  int hub_fd_ = -1;   // node side: fd of the hub connection (-1 = down)

  mutable std::mutex mu_;
  std::condition_variable cv_;  // backpressure + directory waits
  bool started_ = false;
  bool stopping_ = false;

  std::unordered_map<int, std::shared_ptr<Conn>> conns_;          // by fd
  std::unordered_map<EndpointId, std::shared_ptr<Inbox>> local_;  // hosted here
  std::unordered_map<EndpointId, int> routes_;      // remote endpoint -> fd
  std::map<EndpointId, Addr> directory_;            // endpoint -> listen addr
  std::unordered_map<std::string, int> dialed_;     // Addr::Key() -> fd
  std::uint64_t directory_version_ = 0;

  std::priority_queue<DelayedSend, std::vector<DelayedSend>,
                      DelayedSend::Later>
      delayed_;
  std::uint64_t delay_seq_ = 0;

  std::thread loop_thread_;
  std::thread::id loop_tid_;  // set once at loop start; read for re-entrancy
};

}  // namespace vinelet::net
