#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/fault.hpp"

namespace vinelet::net {
namespace {

// Loopback-oriented resolver: numeric IPv4 plus the one name every
// deployment script uses.  DNS is deliberately out of scope for the
// transport; daemon flags take addresses.
bool ResolveIPv4(const std::string& host, in_addr* out) {
  if (host == "localhost") return inet_pton(AF_INET, "127.0.0.1", out) == 1;
  return inet_pton(AF_INET, host.c_str(), out) == 1;
}

std::string PeerAddrString(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return "?";
  char buf[INET_ADDRSTRLEN] = {0};
  inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
  return std::string(buf) + ":" + std::to_string(ntohs(addr.sin_port));
}

// Upper bound on frames gathered into one writev: 64 frames x 3 segments
// stays well under the kernel's IOV_MAX (1024) while still coalescing a
// deep queue into few syscalls.
constexpr std::size_t kMaxFramesPerWritev = 64;

// Reads of up to 64 KiB one connection gets per loop turn (1 MiB).
constexpr int kMaxReadsPerTurn = 16;

}  // namespace

TcpTransport::TcpTransport(TcpTransportConfig config)
    : config_(std::move(config)) {
  if (config_.advertise_host.empty())
    config_.advertise_host = config_.listen_host;
}

TcpTransport::~TcpTransport() { Shutdown(); }

Status TcpTransport::Start() {
  std::unique_lock<std::mutex> lock(mu_);
  if (started_) return FailedPreconditionError("transport already started");

  in_addr listen_ip{};
  if (!ResolveIPv4(config_.listen_host, &listen_ip))
    return InvalidArgumentError("unresolvable listen host: " +
                                config_.listen_host);

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return UnavailableError("socket(): failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = listen_ip;
  addr.sin_port = htons(config_.listen_port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return UnavailableError("bind " + config_.listen_host + ":" +
                            std::to_string(config_.listen_port) + " failed: " +
                            std::strerror(errno));
  }
  if (listen(listen_fd_, 128) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return UnavailableError("listen(): failed");
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  bound_port_ = ntohs(addr.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return UnavailableError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  if (!is_hub()) {
    auto hub = DialLocked(Addr{config_.hub_host, config_.hub_port});
    if (!hub.ok()) {
      close(listen_fd_);
      close(epoll_fd_);
      close(wake_fd_);
      listen_fd_ = epoll_fd_ = wake_fd_ = -1;
      return hub.status();
    }
    (*hub)->is_hub_link = true;
    hub_fd_ = (*hub)->fd;
  }

  started_ = true;
  stopping_ = false;
  loop_thread_ = std::thread([this] { EventLoop(); });
  // Published under mu_ before any Send can observe started_ == true; the
  // loop's own first read happens after its first mu_ acquisition.
  loop_tid_ = loop_thread_.get_id();
  return Status::Ok();
}

void TcpTransport::Shutdown() {
  std::thread loop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      if (!started_) return;
    }
    stopping_ = true;
    loop = std::move(loop_thread_);
  }
  cv_.notify_all();
  WakeLoop();
  if (loop.joinable()) loop.join();

  // Loop is gone; tear down all OS and endpoint state single-threaded.
  std::vector<std::shared_ptr<Inbox>> inboxes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, conn] : conns_) {
      close(fd);
      conn->fd = -1;
    }
    conns_.clear();
    routes_.clear();
    dialed_.clear();
    directory_.clear();
    for (auto& [id, inbox] : local_) inboxes.push_back(inbox);
    local_.clear();
    if (listen_fd_ >= 0) close(listen_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    started_ = false;
  }
  for (auto& inbox : inboxes) inbox->Close();
  cv_.notify_all();
}

Result<std::shared_ptr<Inbox>> TcpTransport::Register(EndpointId id,
                                                      std::size_t capacity) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_ || stopping_)
    return FailedPreconditionError("transport not running");
  auto [it, inserted] = local_.emplace(id, nullptr);
  if (!inserted)
    return AlreadyExistsError("endpoint already registered: " +
                              std::to_string(id));
  it->second = std::make_shared<Inbox>(capacity);
  std::shared_ptr<Inbox> inbox = it->second;

  if (is_hub()) {
    directory_[id] = Addr{config_.advertise_host, bound_port_};
    ++directory_version_;
    BroadcastDirectory();
    lock.unlock();
    WakeLoop();
    return inbox;
  }

  // Node: announce to the hub and wait for the directory snapshot that
  // includes this endpoint — once Register returns, every peer the hub
  // knew at announce time is dialable, and (because hub pushes ride the
  // same ordered connections as application frames) no peer can be told
  // about this endpoint before it can route back to it.
  auto hub_it = conns_.find(hub_fd_);
  if (hub_it == conns_.end()) {
    local_.erase(id);
    return UnavailableError("hub connection down");
  }
  SendHelloLocked(*hub_it->second);
  WakeLoop();
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(config_.register_timeout_s));
  const bool acked = cv_.wait_until(lock, deadline, [&] {
    return stopping_ || directory_.count(id) > 0 || !conns_.count(hub_fd_);
  });
  if (stopping_ || !acked || directory_.count(id) == 0) {
    local_.erase(id);
    inbox->Close();
    if (!acked)
      return TimeoutError("hub did not acknowledge endpoint " +
                          std::to_string(id));
    return UnavailableError("hub connection lost during register");
  }
  return inbox;
}

void TcpTransport::Unregister(EndpointId id) {
  std::shared_ptr<Inbox> inbox;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = local_.find(id);
    if (it == local_.end()) return;
    inbox = std::move(it->second);
    local_.erase(it);
    if (started_ && !stopping_) {
      // Tell every live peer this endpoint is gone, gracefully.
      for (auto& [fd, conn] : conns_) {
        if (conn->connecting) continue;
        EnqueueControl(*conn, WireKind::kGoodbye, id, {});
      }
      if (is_hub()) {
        directory_.erase(id);
        ++directory_version_;
        BroadcastDirectory();
      }
    }
  }
  WakeLoop();
  if (inbox) inbox->Close();
  NotifyDisconnect(id);
}

bool TcpTransport::Connected(EndpointId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return local_.count(id) > 0 || routes_.count(id) > 0 ||
         directory_.count(id) > 0;
}

Status TcpTransport::Send(EndpointId from, EndpointId to, Blob payload,
                          Blob attachment) {
  std::vector<Parcel> parcels;
  parcels.push_back(Parcel{std::move(payload), std::move(attachment)});
  return SendMany(from, to, std::move(parcels));
}

Status TcpTransport::SendMany(EndpointId from, EndpointId to,
                              std::vector<Parcel> parcels) {
  if (const std::shared_ptr<FaultInjector> fault = fault_injector()) {
    std::vector<Parcel> survivors;
    survivors.reserve(parcels.size());
    for (Parcel& parcel : parcels)
      JudgeParcel(*fault, from, to, std::move(parcel), survivors);
    parcels = std::move(survivors);
  }
  return SendParcels(from, to, std::move(parcels));
}

void TcpTransport::JudgeParcel(FaultInjector& fault, EndpointId from,
                               EndpointId to, Parcel parcel,
                               std::vector<Parcel>& out) {
  const SendDecision decision = fault.OnSend(from, to);
  // Drops and partitions are silence, not errors — same contract as the
  // in-process bus, which is what exercises probe/retry paths.
  if (decision.drop) return;
  if (decision.corrupt) {
    if (!parcel.attachment.empty())
      parcel.attachment =
          FaultInjector::CorruptCopy(parcel.attachment, decision.corrupt_bit);
    else
      parcel.payload =
          FaultInjector::CorruptCopy(parcel.payload, decision.corrupt_bit);
  }
  if (decision.delay_s > 0.0) {
    const auto due = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::duration<double>(decision.delay_s));
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int copy = 0; copy < decision.copies; ++copy)
        delayed_.push(DelayedSend{due, delay_seq_++, from, to, parcel.payload,
                                  parcel.attachment});
    }
    WakeLoop();
    return;
  }
  for (int copy = 1; copy < decision.copies; ++copy) out.push_back(parcel);
  out.push_back(std::move(parcel));
}

Status TcpTransport::SendParcels(EndpointId from, EndpointId to,
                                 std::vector<Parcel> parcels) {
  if (parcels.empty()) return Status::Ok();
  std::unique_lock<std::mutex> lock(mu_);
  if (!started_ || stopping_)
    return UnavailableError("transport shutting down");
  auto local_it = local_.find(to);
  if (local_it != local_.end()) {
    std::shared_ptr<Inbox> inbox = local_it->second;
    lock.unlock();
    for (Parcel& parcel : parcels) {
      Status status = DeliverLocal(inbox, from, std::move(parcel.payload),
                                   std::move(parcel.attachment));
      if (!status.ok()) return status;
    }
    return Status::Ok();
  }

  auto conn = RouteTo(to);
  if (!conn.ok()) return conn.status();
  std::shared_ptr<Conn> target = *conn;

  // `first` is set when the frames queued since the last hand-over went to
  // an empty queue on a writable socket: nothing is ahead of them and no
  // writer is due, so this thread writes them itself.
  bool first = false;
  bool queued = false;
  for (Parcel& parcel : parcels) {
    OutFrame frame;
    WireHeader header;
    header.kind = WireKind::kData;
    header.sender = from;
    header.dest = to;
    header.payload_len = static_cast<std::uint32_t>(parcel.payload.size());
    header.attach_len = static_cast<std::uint32_t>(parcel.attachment.size());
    EncodeWireHeader(header, frame.header);
    frame.payload = std::move(parcel.payload);
    frame.attachment = std::move(parcel.attachment);
    const std::size_t frame_bytes = frame.TotalBytes();

    // Backpressure: block the caller until the socket drains below the
    // cap.  The event loop itself (the drainer, re-sending delayed frames)
    // must never block here — it bypasses the cap; delayed chaos frames are
    // the only traffic it originates on this path and they are already
    // bounded.  A connection that dies mid-wait releases the sender and the
    // frame evaporates like any packet to a dead host.
    if (std::this_thread::get_id() != loop_tid_ &&
        target->outq_bytes + frame_bytes > config_.send_queue_limit_bytes) {
      // Frames this sender queued must be on their way before it waits.
      if (queued && HandOver(*target, first)) WakeLoop();
      queued = false;
      ++target->backpressure_stalls;
      cv_.wait(lock, [&] {
        return stopping_ || target->fd < 0 || target->write_failed ||
               target->outq_bytes + frame_bytes <=
                   config_.send_queue_limit_bytes;
      });
      if (stopping_) return UnavailableError("transport shutting down");
      if (target->fd < 0 || target->write_failed)
        return Status::Ok();  // peer died: silence
    }
    if (!queued) first = target->outq.empty() && Writable(*target);
    target->outq.push_back(std::move(frame));
    target->outq_bytes += frame_bytes;
    target->peak_queue_bytes =
        std::max<std::uint64_t>(target->peak_queue_bytes, target->outq_bytes);
    queued = true;
  }
  const bool wake = HandOver(*target, first);
  lock.unlock();
  if (wake) WakeLoop();
  return Status::Ok();
}

bool TcpTransport::Writable(const Conn& conn) {
  return conn.fd >= 0 && !conn.connecting && !conn.want_write &&
         !conn.write_failed;
}

bool TcpTransport::HandOver(Conn& conn, bool write_here) {
  if (write_here) FlushConn(conn);
  // Bytes left over wait on EPOLLOUT (FlushConn armed it); a failed write
  // waits for the loop to close the connection.
  return !conn.outq.empty() || conn.write_failed;
}

Status TcpTransport::DeliverLocal(const std::shared_ptr<Inbox>& inbox,
                                  EndpointId from, Blob payload,
                                  Blob attachment) {
  const std::uint64_t frame_bytes = payload.size() + attachment.size();
  if (!inbox->Send(Frame{from, std::move(payload), std::move(attachment)}))
    return UnavailableError("inbox closed");
  CountDelivery(frame_bytes);
  return Status::Ok();
}

Result<std::shared_ptr<TcpTransport::Conn>> TcpTransport::RouteTo(
    EndpointId to) {
  auto route = routes_.find(to);
  if (route != routes_.end()) {
    auto conn = conns_.find(route->second);
    if (conn != conns_.end()) return conn->second;
    routes_.erase(route);
  }
  auto dir = directory_.find(to);
  if (dir == directory_.end())
    return NotFoundError("endpoint gone: " + std::to_string(to));
  const std::string key = dir->second.Key();
  auto dialed = dialed_.find(key);
  if (dialed != dialed_.end()) {
    auto conn = conns_.find(dialed->second);
    if (conn != conns_.end()) {
      routes_[to] = dialed->second;
      conn->second->endpoints.insert(to);
      return conn->second;
    }
    dialed_.erase(dialed);
  }
  auto conn = DialLocked(dir->second);
  if (!conn.ok()) return conn.status();
  routes_[to] = (*conn)->fd;
  (*conn)->endpoints.insert(to);
  return *conn;
}

Result<std::shared_ptr<TcpTransport::Conn>> TcpTransport::DialLocked(
    const Addr& addr) {
  in_addr ip{};
  if (!ResolveIPv4(addr.host, &ip))
    return InvalidArgumentError("unresolvable host: " + addr.host);
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return UnavailableError("socket(): failed");
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = ip;
  sa.sin_port = htons(addr.port);
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) {
    close(fd);
    return UnavailableError("connect to " + addr.Key() + " failed: " +
                            std::strerror(errno));
  }

  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->remote_addr = addr.Key();
  conn->dial_key = addr.Key();
  conn->connecting = (rc != 0);
  conn->decoder = FrameDecoder(config_.framing);
  conns_[fd] = conn;
  dialed_[addr.Key()] = fd;

  epoll_event ev{};
  ev.events = EPOLLIN | (conn->connecting ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  conn->want_write = conn->connecting;
  if (epoll_fd_ >= 0) epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);

  SendHelloLocked(*conn);
  return conn;
}

void TcpTransport::SendHelloLocked(Conn& conn) {
  std::vector<std::uint8_t> body;
  wire::AppendU32(body, static_cast<std::uint32_t>(local_.size()));
  for (const auto& [id, inbox] : local_) wire::AppendU64(body, id);
  wire::AppendString(body, config_.advertise_host);
  wire::AppendU32(body, bound_port_);
  EnqueueControl(conn, WireKind::kHello, 0, std::move(body));
}

std::vector<std::uint8_t> TcpTransport::EncodeDirectoryLocked() const {
  std::vector<std::uint8_t> body;
  wire::AppendU64(body, directory_version_);
  wire::AppendU32(body, static_cast<std::uint32_t>(directory_.size()));
  for (const auto& [id, addr] : directory_) {
    wire::AppendU64(body, id);
    wire::AppendString(body, addr.host);
    wire::AppendU32(body, addr.port);
  }
  return body;
}

void TcpTransport::BroadcastDirectory() {
  std::vector<std::uint8_t> body = EncodeDirectoryLocked();
  for (auto& [fd, conn] : conns_) {
    if (conn->connecting) continue;
    EnqueueControl(*conn, WireKind::kPeers, 0, body);
  }
}

void TcpTransport::EnqueueControl(Conn& conn, WireKind kind, EndpointId sender,
                                  std::vector<std::uint8_t> body) {
  OutFrame frame;
  WireHeader header;
  header.kind = kind;
  header.sender = sender;
  header.dest = 0;
  header.payload_len = static_cast<std::uint32_t>(body.size());
  header.attach_len = 0;
  EncodeWireHeader(header, frame.header);
  frame.payload = Blob(std::move(body));
  const std::size_t frame_bytes = frame.TotalBytes();
  // Control frames bypass the backpressure cap: they are tiny, and the
  // event loop (which originates most of them) must never block.
  conn.outq.push_back(std::move(frame));
  conn.outq_bytes += frame_bytes;
  conn.peak_queue_bytes =
      std::max<std::uint64_t>(conn.peak_queue_bytes, conn.outq_bytes);
}

std::vector<ConnectionStats> TcpTransport::ConnectionsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ConnectionStats> out;
  out.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) {
    ConnectionStats stats;
    stats.peer = conn->endpoints.empty() ? 0 : *conn->endpoints.begin();
    stats.remote_addr = conn->remote_addr;
    stats.frames_sent = conn->frames_sent;
    stats.bytes_sent = conn->bytes_sent;
    stats.frames_received = conn->frames_received;
    stats.bytes_received = conn->bytes_received;
    stats.send_queue_bytes = conn->outq_bytes;
    stats.peak_queue_bytes = conn->peak_queue_bytes;
    stats.backpressure_stalls = conn->backpressure_stalls;
    out.push_back(std::move(stats));
  }
  return out;
}

void TcpTransport::WakeLoop() {
  std::uint64_t one = 1;
  if (wake_fd_ >= 0) {
    [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void TcpTransport::EventLoop() {
  std::array<epoll_event, 64> events;
  while (true) {
    int timeout_ms = 200;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      if (!delayed_.empty()) {
        const auto now = std::chrono::steady_clock::now();
        const auto due = delayed_.top().due;
        timeout_ms =
            due <= now
                ? 0
                : static_cast<int>(std::min<std::int64_t>(
                      timeout_ms,
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          due - now)
                              .count() +
                          1));
      }
    }
    const int n =
        epoll_wait(epoll_fd_, events.data(),
                   static_cast<int>(events.size()), timeout_ms);
    if (n < 0 && errno != EINTR) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
      } else if (fd == listen_fd_) {
        HandleListener();
      } else {
        HandleConn(fd, events[i].events);
      }
    }
    PumpDelayed();

    // Flush every connection with queued output; close the ones that died.
    std::vector<int> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [fd, conn] : conns_) {
        if (!conn->write_failed && !conn->connecting && !conn->outq.empty())
          FlushConn(*conn);
        if (conn->write_failed) dead.push_back(fd);
      }
    }
    for (int fd : dead) CloseConn(fd, "write failed");
  }
}

void TcpTransport::HandleListener() {
  while (true) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->remote_addr = PeerAddrString(fd);
    conn->decoder = FrameDecoder(config_.framing);
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_[fd] = conn;
      // Greet inbound peers immediately so both sides learn each other's
      // endpoints regardless of who dialed.
      SendHelloLocked(*conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void TcpTransport::HandleConn(int fd, std::uint32_t events) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    CloseConn(fd, "socket error/hangup");
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    bool connect_failed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conn->connecting) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) {
          conn->connecting = false;
          ArmWrite(*conn, !conn->outq.empty());
        } else {
          connect_failed = true;
        }
      }
    }
    if (connect_failed) {
      CloseConn(fd, "connect failed");
      return;
    }
  }
  if ((events & EPOLLIN) != 0) ReadConn(conn);
}

void TcpTransport::ReadConn(std::shared_ptr<Conn> conn) {
  std::array<std::uint8_t, 64 * 1024> buf;
  // Bounded per turn: a peer that keeps the socket full must not starve
  // the other connections or the loop's stop check.  Epoll is
  // level-triggered, so what is left is reported again next turn.
  for (int reads = 0; reads < kMaxReadsPerTurn; ++reads) {
    const ssize_t n = read(conn->fd, buf.data(), buf.size());
    if (n > 0) {
      Status fed =
          conn->decoder.Feed(std::span<const std::uint8_t>(buf.data(),
                                                           std::size_t(n)));
      {
        std::lock_guard<std::mutex> lock(mu_);
        conn->bytes_received += std::uint64_t(n);
      }
      while (auto frame = conn->decoder.Next())
        ProcessFrame(conn, std::move(*frame));
      if (!fed.ok()) {
        // Desynced stream: unrecoverable; drop the connection.
        CloseConn(conn->fd, "framing desync");
        return;
      }
      continue;
    }
    if (n == 0) {
      CloseConn(conn->fd, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(conn->fd, "read error");
    return;
  }
}

void TcpTransport::ProcessFrame(const std::shared_ptr<Conn>& conn,
                                DecodedWireFrame frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++conn->frames_received;
  }
  switch (frame.header.kind) {
    case WireKind::kData: {
      std::shared_ptr<Inbox> inbox;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = local_.find(frame.header.dest);
        if (it == local_.end()) return;  // stale dest: drop silently
        inbox = it->second;
      }
      (void)DeliverLocal(inbox, frame.header.sender, std::move(frame.payload),
                         std::move(frame.attachment));
      return;
    }
    case WireKind::kHello:
      HandleHello(conn, frame);
      return;
    case WireKind::kPeers:
      HandlePeers(frame);
      return;
    case WireKind::kGoodbye:
      HandleGoodbye(conn, frame);
      return;
  }
}

void TcpTransport::HandleHello(const std::shared_ptr<Conn>& conn,
                               const DecodedWireFrame& frame) {
  std::span<const std::uint8_t> in = frame.payload.span();
  std::uint32_t count = 0;
  if (!wire::TakeU32(in, count)) return;
  std::vector<EndpointId> ids;
  // A hello lists only endpoints the sender actually hosts; anything
  // claiming more ids than bytes allow is malformed and ignored.
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    if (!wire::TakeU64(in, id)) return;
    ids.push_back(id);
  }
  std::string host;
  std::uint32_t port = 0;
  if (!wire::TakeString(in, host) || !wire::TakeU32(in, port)) return;
  if (port > 0xffff) return;

  {
    std::lock_guard<std::mutex> lock(mu_);
    const Addr addr{host, static_cast<std::uint16_t>(port)};
    for (EndpointId id : ids) {
      conn->endpoints.insert(id);
      routes_[id] = conn->fd;
    }
    if (!ids.empty() && conn->dial_key.empty()) {
      // Inbound connection: remember the peer's advertised address so a
      // later outbound send to its endpoints reuses this socket instead
      // of dialing a second one.
      auto existing = dialed_.find(addr.Key());
      if (existing == dialed_.end()) dialed_[addr.Key()] = conn->fd;
    }
    if (is_hub()) {
      bool changed = false;
      for (EndpointId id : ids) {
        Addr& slot = directory_[id];
        if (slot.host != addr.host || slot.port != addr.port) {
          slot = addr;
          changed = true;
        }
      }
      if (changed || !ids.empty()) {
        ++directory_version_;
        BroadcastDirectory();
      } else {
        // Even an empty hello gets the current directory so a node that
        // connected before registering anything still learns the map.
        EnqueueControl(*conn, WireKind::kPeers, 0, EncodeDirectoryLocked());
      }
    }
  }
  cv_.notify_all();
}

void TcpTransport::HandlePeers(const DecodedWireFrame& frame) {
  std::span<const std::uint8_t> in = frame.payload.span();
  std::uint64_t version = 0;
  std::uint32_t count = 0;
  if (!wire::TakeU64(in, version) || !wire::TakeU32(in, count)) return;
  std::map<EndpointId, Addr> next;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t id = 0;
    std::string host;
    std::uint32_t port = 0;
    if (!wire::TakeU64(in, id) || !wire::TakeString(in, host) ||
        !wire::TakeU32(in, port) || port > 0xffff)
      return;
    next[id] = Addr{std::move(host), static_cast<std::uint16_t>(port)};
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (version < directory_version_) return;  // stale snapshot
    directory_ = std::move(next);
    directory_version_ = version;
  }
  cv_.notify_all();
}

void TcpTransport::HandleGoodbye(const std::shared_ptr<Conn>& conn,
                                 const DecodedWireFrame& frame) {
  const EndpointId id = frame.header.sender;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conn->endpoints.erase(id);
    auto route = routes_.find(id);
    if (route != routes_.end() && route->second == conn->fd)
      routes_.erase(route);
    if (is_hub()) {
      if (directory_.erase(id) > 0) {
        ++directory_version_;
        BroadcastDirectory();
      }
    }
  }
  cv_.notify_all();
  NotifyDisconnect(id);
}

void TcpTransport::FlushConn(Conn& conn) {
  while (!conn.outq.empty()) {
    std::array<iovec, kMaxFramesPerWritev * 3> iov;
    std::size_t niov = 0;
    std::size_t skip = conn.front_offset;
    for (const OutFrame& frame : conn.outq) {
      if (niov + 3 > iov.size()) break;
      const std::array<std::pair<const std::uint8_t*, std::size_t>, 3> segs = {
          std::pair<const std::uint8_t*, std::size_t>{frame.header.data(),
                                                      frame.header.size()},
          {frame.payload.data(), frame.payload.size()},
          {frame.attachment.data(), frame.attachment.size()}};
      for (const auto& [data, size] : segs) {
        if (size == 0) continue;
        if (skip >= size) {
          skip -= size;
          continue;
        }
        iov[niov].iov_base = const_cast<std::uint8_t*>(data) + skip;
        iov[niov].iov_len = size - skip;
        skip = 0;
        ++niov;
      }
    }
    if (niov == 0) return;
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = niov;
    const ssize_t sent = sendmsg(conn.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ArmWrite(conn, true);
        return;
      }
      // Only the loop thread closes (and so writes conn.fd): a sender
      // flushing inline marks the failure for the loop to act on.
      conn.write_failed = true;
      cv_.notify_all();
      return;
    }
    conn.bytes_sent += std::uint64_t(sent);
    std::size_t remaining = std::size_t(sent);
    while (remaining > 0 && !conn.outq.empty()) {
      const std::size_t front_total = conn.outq.front().TotalBytes();
      const std::size_t front_left = front_total - conn.front_offset;
      if (remaining >= front_left) {
        remaining -= front_left;
        conn.outq_bytes -= front_total;
        conn.front_offset = 0;
        ++conn.frames_sent;
        conn.outq.pop_front();
      } else {
        conn.front_offset += remaining;
        remaining = 0;
      }
    }
    cv_.notify_all();  // queue drained below the cap: release stalled senders
  }
  ArmWrite(conn, false);
}

void TcpTransport::ArmWrite(Conn& conn, bool enable) {
  if (conn.want_write == enable || conn.fd < 0) return;
  conn.want_write = enable;
  epoll_event ev{};
  ev.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void TcpTransport::DropRoutesVia(int fd, std::vector<EndpointId>* lost) {
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second == fd) {
      lost->push_back(it->first);
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpTransport::CloseConn(int fd, const char* why) {
  (void)why;
  std::shared_ptr<Conn> conn;
  std::vector<EndpointId> lost;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = it->second;
    conns_.erase(it);
    if (!conn->dial_key.empty()) {
      auto dialed = dialed_.find(conn->dial_key);
      if (dialed != dialed_.end() && dialed->second == fd)
        dialed_.erase(dialed);
    } else {
      for (auto dialed = dialed_.begin(); dialed != dialed_.end();) {
        if (dialed->second == fd)
          dialed = dialed_.erase(dialed);
        else
          ++dialed;
      }
    }
    DropRoutesVia(fd, &lost);
    for (EndpointId id : conn->endpoints)
      if (std::find(lost.begin(), lost.end(), id) == lost.end())
        lost.push_back(id);
    if (is_hub()) {
      // A connection dropping at the hub means those endpoints' process is
      // gone (every node holds its hub link for life): evict them from the
      // directory so nobody dials a corpse, and tell the survivors.
      bool changed = false;
      for (EndpointId id : lost) changed |= directory_.erase(id) > 0;
      if (changed) {
        ++directory_version_;
        BroadcastDirectory();
      }
    } else if (conn->is_hub_link) {
      // Losing the hub orphans this node: every remote endpoint becomes
      // unreachable (the directory is hub-fed), so report them all gone.
      for (const auto& [id, addr] : directory_)
        if (!local_.count(id) &&
            std::find(lost.begin(), lost.end(), id) == lost.end())
          lost.push_back(id);
      directory_.clear();
      hub_fd_ = -1;
    }
    conn->fd = -1;
  }
  if (fd >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
  }
  cv_.notify_all();
  for (EndpointId id : lost) NotifyDisconnect(id);
}

void TcpTransport::PumpDelayed() {
  while (true) {
    DelayedSend next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (delayed_.empty() ||
          delayed_.top().due > std::chrono::steady_clock::now())
        return;
      next = std::move(const_cast<DelayedSend&>(delayed_.top()));
      delayed_.pop();
    }
    // Re-sent without fault re-evaluation (the delay *was* the verdict).
    // A destination that vanished while the frame was parked just drops
    // it — exactly what a delayed packet to a dead host would do.
    std::vector<Parcel> parcels;
    parcels.push_back(
        Parcel{std::move(next.payload), std::move(next.attachment)});
    (void)SendParcels(next.from, next.to, std::move(parcels));
  }
}

}  // namespace vinelet::net
