#include "harness/timed_transport.hpp"

#include <chrono>

namespace perfbench {

using vinelet::Blob;
using vinelet::Status;
using vinelet::net::EndpointId;

namespace {

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

TimedTransport::TimedTransport(std::shared_ptr<vinelet::net::Transport> inner,
                               vinelet::telemetry::Histogram* send_s,
                               vinelet::telemetry::Counter* frames)
    : inner_(std::move(inner)), send_s_(send_s), frames_(frames) {
  // The runtime installs its disconnect listener on this wrapper; relay the
  // inner transport's notifications so worker departures are still seen.
  inner_->SetDisconnectListener([this](EndpointId id) { NotifyDisconnect(id); });
}

TimedTransport::~TimedTransport() { inner_->SetDisconnectListener(nullptr); }

vinelet::Result<std::shared_ptr<vinelet::net::Inbox>> TimedTransport::Register(
    EndpointId id, std::size_t capacity) {
  return inner_->Register(id, capacity);
}

void TimedTransport::Unregister(EndpointId id) { inner_->Unregister(id); }

bool TimedTransport::Connected(EndpointId id) const {
  return inner_->Connected(id);
}

Status TimedTransport::Send(EndpointId from, EndpointId to, Blob payload,
                            Blob attachment) {
  const auto start = std::chrono::steady_clock::now();
  Status status =
      inner_->Send(from, to, std::move(payload), std::move(attachment));
  send_s_->Observe(Since(start));
  frames_->Add();
  return status;
}

Status TimedTransport::SendMany(EndpointId from, EndpointId to,
                                std::vector<vinelet::net::Parcel> parcels) {
  const std::size_t count = parcels.size();
  const auto start = std::chrono::steady_clock::now();
  Status status = inner_->SendMany(from, to, std::move(parcels));
  send_s_->Observe(Since(start));
  frames_->Add(count);
  return status;
}

std::vector<vinelet::net::ConnectionStats> TimedTransport::ConnectionsSnapshot()
    const {
  return inner_->ConnectionsSnapshot();
}

}  // namespace perfbench
