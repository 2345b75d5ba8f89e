// A forwarding net::Transport that times every Send/SendMany call.
//
// The traced run wraps the hub and every node transport in one of these, so
// `net.send_us_p50` measures what a caller (manager loop, worker thread)
// pays to hand a frame to the transport — route lookup, enqueue, eventfd
// wake, and any backpressure stall — without touching the runtime's code.
#pragma once

#include <memory>

#include "net/transport.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

class TimedTransport final : public vinelet::net::Transport {
 public:
  /// `send_s` receives one observation (seconds) per Send or SendMany call;
  /// `frames` counts the frames handed over.  Both must outlive this object.
  TimedTransport(std::shared_ptr<vinelet::net::Transport> inner,
                 vinelet::telemetry::Histogram* send_s,
                 vinelet::telemetry::Counter* frames);
  ~TimedTransport() override;

  vinelet::Result<std::shared_ptr<vinelet::net::Inbox>> Register(
      vinelet::net::EndpointId id, std::size_t capacity = 0) override;
  void Unregister(vinelet::net::EndpointId id) override;
  bool Connected(vinelet::net::EndpointId id) const override;
  vinelet::Status Send(vinelet::net::EndpointId from,
                       vinelet::net::EndpointId to, vinelet::Blob payload,
                       vinelet::Blob attachment = vinelet::Blob()) override;
  vinelet::Status SendMany(vinelet::net::EndpointId from,
                           vinelet::net::EndpointId to,
                           std::vector<vinelet::net::Parcel> parcels) override;
  std::vector<vinelet::net::ConnectionStats> ConnectionsSnapshot()
      const override;

 private:
  std::shared_ptr<vinelet::net::Transport> inner_;
  vinelet::telemetry::Histogram* send_s_;
  vinelet::telemetry::Counter* frames_;
};

}  // namespace perfbench
