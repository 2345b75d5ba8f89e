#include "net/fault.hpp"

#include <string>
#include <utility>

#include "telemetry/flight_recorder.hpp"

namespace vinelet::net {
namespace {

// SplitMix64 finalizer: decorrelates stream keys so that link (1,2) and
// link (2,1) get unrelated streams even under the trivial packing below.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t LinkKey(EndpointId from, EndpointId to) {
  return Mix((from << 32) ^ to);
}

// The bit CorruptNext flips (CorruptCopy reduces it modulo the frame's bit
// count, so it lands at a size-dependent, reproducible position).
constexpr std::uint64_t kForcedCorruptBit = 0x9E3779B97F4A7C15ull;

// Worker hooks draw from per-(worker, hook) streams so a setup-failure draw
// never perturbs the invocation-failure stream of the same worker.
enum WorkerHook : std::uint64_t {
  kSetupHook = 1,
  kInvocationHook = 2,
  kTaskHook = 3,
  kStragglerHook = 4,
};

std::uint64_t WorkerKey(EndpointId worker, WorkerHook hook) {
  return Mix(0xF417000000000000ull ^ (worker << 8) ^ hook);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

Rng& FaultInjector::StreamFor(std::uint64_t key) {
  auto it = streams_.find(key);
  if (it == streams_.end())
    it = streams_.emplace(key, Rng(plan_.seed ^ key)).first;
  return it->second;
}

void FaultInjector::RecordFault(const char* tag, EndpointId from,
                                EndpointId to) {
  telemetry::FlightRecorder* flight =
      flight_.load(std::memory_order_acquire);
  if (flight) flight->Record(tag, "injected", 0, from, to);
}

SendDecision FaultInjector::OnSend(EndpointId from, EndpointId to) {
  SendDecision decision;
  const std::uint64_t key = LinkKey(from, to);
  bool blocked = false, forced_corrupt = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    blocked = blocked_links_.contains(key);
    auto it = corrupt_next_.find(key);
    if (!blocked && it != corrupt_next_.end()) {
      forced_corrupt = true;
      if (--it->second == 0) corrupt_next_.erase(it);
    }
  }
  if (blocked) {
    counters_.blocked.fetch_add(1, std::memory_order_relaxed);
    RecordFault("inj-block", from, to);
    decision.drop = true;
    return decision;
  }
  if (forced_corrupt) {
    counters_.corrupted.fetch_add(1, std::memory_order_relaxed);
    RecordFault("inj-corrupt", from, to);
    decision.corrupt = true;
    decision.corrupt_bit = kForcedCorruptBit;
  }
  const LinkFaults& link = plan_.link;
  if (link.drop_p == 0.0 && link.dup_p == 0.0 && link.corrupt_p == 0.0 &&
      link.delay_p == 0.0)
    return decision;
  double drop_draw, dup_draw, corrupt_draw, delay_draw, delay_span_draw;
  std::uint64_t corrupt_bit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Rng& rng = StreamFor(LinkKey(from, to));
    // Always burn the same number of draws per message so the stream stays
    // aligned regardless of which faults fire.
    drop_draw = rng.NextDouble();
    dup_draw = rng.NextDouble();
    corrupt_draw = rng.NextDouble();
    delay_draw = rng.NextDouble();
    delay_span_draw = rng.NextDouble();
    corrupt_bit = rng.Next();
  }
  if (drop_draw < link.drop_p) {
    counters_.dropped.fetch_add(1, std::memory_order_relaxed);
    RecordFault("inj-drop", from, to);
    decision.drop = true;
    return decision;
  }
  if (dup_draw < link.dup_p) {
    counters_.duplicated.fetch_add(1, std::memory_order_relaxed);
    RecordFault("inj-dup", from, to);
    decision.copies = 2;
  }
  if (corrupt_draw < link.corrupt_p && !decision.corrupt) {
    counters_.corrupted.fetch_add(1, std::memory_order_relaxed);
    RecordFault("inj-corrupt", from, to);
    decision.corrupt = true;
    decision.corrupt_bit = corrupt_bit;
  }
  if (delay_draw < link.delay_p) {
    counters_.delayed.fetch_add(1, std::memory_order_relaxed);
    RecordFault("inj-delay", from, to);
    decision.delay_s =
        link.delay_min_s +
        delay_span_draw * (link.delay_max_s - link.delay_min_s);
  }
  return decision;
}

void FaultInjector::BlockLink(EndpointId from, EndpointId to, bool blocked) {
  std::lock_guard<std::mutex> lock(mu_);
  if (blocked)
    blocked_links_.insert(LinkKey(from, to));
  else
    blocked_links_.erase(LinkKey(from, to));
}

void FaultInjector::CorruptNext(EndpointId from, EndpointId to,
                                std::uint64_t frames) {
  std::lock_guard<std::mutex> lock(mu_);
  if (frames == 0)
    corrupt_next_.erase(LinkKey(from, to));
  else
    corrupt_next_[LinkKey(from, to)] = frames;
}

void FaultInjector::Partition(EndpointId a, EndpointId b, bool partitioned) {
  BlockLink(a, b, partitioned);
  BlockLink(b, a, partitioned);
}

bool FaultInjector::LinkBlocked(EndpointId from, EndpointId to) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocked_links_.contains(LinkKey(from, to));
}

bool FaultInjector::InjectSetupFailure(EndpointId worker) {
  if (plan_.worker.setup_failure_p == 0.0) return false;
  double draw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draw = StreamFor(WorkerKey(worker, kSetupHook)).NextDouble();
  }
  if (draw >= plan_.worker.setup_failure_p) return false;
  counters_.setup_failures.fetch_add(1, std::memory_order_relaxed);
  RecordFault("inj-setup", worker, worker);
  return true;
}

bool FaultInjector::InjectInvocationFailure(EndpointId worker) {
  if (plan_.worker.invocation_failure_p == 0.0) return false;
  double draw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draw = StreamFor(WorkerKey(worker, kInvocationHook)).NextDouble();
  }
  if (draw >= plan_.worker.invocation_failure_p) return false;
  counters_.invocation_failures.fetch_add(1, std::memory_order_relaxed);
  RecordFault("inj-invoke", worker, worker);
  return true;
}

bool FaultInjector::InjectTaskFailure(EndpointId worker) {
  if (plan_.worker.task_failure_p == 0.0) return false;
  double draw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draw = StreamFor(WorkerKey(worker, kTaskHook)).NextDouble();
  }
  if (draw >= plan_.worker.task_failure_p) return false;
  counters_.task_failures.fetch_add(1, std::memory_order_relaxed);
  RecordFault("inj-task", worker, worker);
  return true;
}

double FaultInjector::StragglerDelayS(EndpointId worker) {
  if (plan_.worker.straggler_p == 0.0) return 0.0;
  double draw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draw = StreamFor(WorkerKey(worker, kStragglerHook)).NextDouble();
  }
  if (draw >= plan_.worker.straggler_p) return 0.0;
  counters_.stragglers.fetch_add(1, std::memory_order_relaxed);
  RecordFault("inj-slow", worker, worker);
  return plan_.worker.straggler_delay_s;
}

FaultStats FaultInjector::stats() const {
  FaultStats s;
  s.dropped = counters_.dropped.load(std::memory_order_relaxed);
  s.duplicated = counters_.duplicated.load(std::memory_order_relaxed);
  s.corrupted = counters_.corrupted.load(std::memory_order_relaxed);
  s.delayed = counters_.delayed.load(std::memory_order_relaxed);
  s.blocked = counters_.blocked.load(std::memory_order_relaxed);
  s.setup_failures =
      counters_.setup_failures.load(std::memory_order_relaxed);
  s.invocation_failures =
      counters_.invocation_failures.load(std::memory_order_relaxed);
  s.task_failures = counters_.task_failures.load(std::memory_order_relaxed);
  s.stragglers = counters_.stragglers.load(std::memory_order_relaxed);
  return s;
}

Blob FaultInjector::CorruptCopy(const Blob& bytes, std::uint64_t which_bit) {
  if (bytes.empty()) return bytes;
  std::vector<std::uint8_t> copy(bytes.span().begin(), bytes.span().end());
  const std::uint64_t bit = which_bit % (copy.size() * 8);
  copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return Blob(std::move(copy));
}

}  // namespace vinelet::net
