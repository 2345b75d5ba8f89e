// Flight recorder: a fixed-size lock-free ring of recent telemetry events.
//
// Always on (unlike the span tracer): every process keeps the last few
// thousand protocol/lifecycle events in a preallocated ring so a crash, a
// failed file transfer, or an operator request can dump a post-mortem
// journal *without* having enabled tracing up front — the same reasoning as
// Netherite's partition event journals.
//
// Writers take a ticket with one fetch_add and claim the ticket's slot with
// a compare-exchange on its sequence number (odd while the write is in
// progress, even when published), seqlock-style.  The event is copied in
// and out as atomic words.  Readers discard any slot whose sequence was
// odd or changed across the copy, so Dump() never blocks writers and never
// returns a half-written event.  A writer lapped by a newer ticket drops
// its event; one that finds the writer a lap behind still copying waits
// for it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/clock.hpp"
#include "common/status.hpp"

namespace vinelet::telemetry {

/// One journal entry.  Fixed-size character fields keep the slot trivially
/// copyable (no heap traffic on the record path); long tags/details are
/// truncated.  `a`/`b` are event-specific operands (worker id, byte count,
/// chunk index, ...) named in the tag's context.
struct FlightEvent {
  double t_s = 0.0;
  std::uint64_t trace_id = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  char tag[16] = {};
  char detail[48] = {};
};

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Timestamps come from this clock (0 without one).
  void SetClock(const Clock* clock) noexcept { clock_ = clock; }

  /// Records one event: one fetch_add, one compare-exchange and a bounded
  /// copy.  It waits only while the writer a whole lap behind is still
  /// copying into the same slot.
  void Record(std::string_view tag, std::string_view detail,
              std::uint64_t trace_id = 0, std::uint64_t a = 0,
              std::uint64_t b = 0);

  /// Copies the surviving events, oldest first.  Torn or not-yet-published
  /// slots are skipped.
  std::vector<FlightEvent> Dump() const;

  /// The journal as a JSON document:
  /// {"capacity":N,"recorded":M,"events":[{t_s,tag,detail,trace_id,a,b}...]}
  std::string DumpJson() const;

  /// If the VINELET_FLIGHT_DUMP environment variable names a directory,
  /// writes DumpJson() to "<dir>/flight-<tag>.json" — the crash hook.
  /// Returns the path written ("" when the variable is unset).
  std::string DumpOnEnv(std::string_view tag) const;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Total events ever recorded (>= capacity means the ring has wrapped).
  std::uint64_t recorded() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kEventWords =
      sizeof(FlightEvent) / sizeof(std::uint64_t);
  static_assert(sizeof(FlightEvent) % sizeof(std::uint64_t) == 0 &&
                std::is_trivially_copyable_v<FlightEvent>);

  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 = never written
    std::atomic<std::uint64_t> words[kEventWords] = {};  // a FlightEvent
  };

  const Clock* clock_ = nullptr;
  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> cursor_{0};
};

}  // namespace vinelet::telemetry
