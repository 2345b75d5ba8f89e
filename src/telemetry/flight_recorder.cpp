#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "telemetry/export.hpp"

namespace vinelet::telemetry {

namespace {

void CopyTruncated(char* dst, std::size_t dst_size, std::string_view src) {
  const std::size_t n = std::min(src.size(), dst_size - 1);
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void FlightRecorder::Record(std::string_view tag, std::string_view detail,
                            std::uint64_t trace_id, std::uint64_t a,
                            std::uint64_t b) {
  FlightEvent event;
  event.t_s = clock_ != nullptr ? clock_->Now() : 0.0;
  event.trace_id = trace_id;
  event.a = a;
  event.b = b;
  CopyTruncated(event.tag, sizeof(event.tag), tag);
  CopyTruncated(event.detail, sizeof(event.detail), detail);
  const auto words =
      std::bit_cast<std::array<std::uint64_t, kEventWords>>(event);

  const std::uint64_t ticket = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % capacity_];
  // Claim the slot by moving its sequence from a published (even) value of
  // an older ticket to this ticket's odd value.  A newer ticket already
  // there means this event was lapped: drop it.  An odd older value is a
  // writer a lap behind still copying: wait for it, since two writers in
  // one slot could publish a mix of both events.
  const std::uint64_t writing = 2 * ticket + 1;
  std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  while (true) {
    if (seq >= writing) return;
    if (seq % 2 == 1) {
      std::this_thread::yield();
      seq = slot.seq.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.seq.compare_exchange_weak(seq, writing,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed))
      break;
  }
  // Release stores: a reader that sees any word of this event also sees
  // the odd sequence claimed before it, so its re-check rejects the copy.
  for (std::size_t i = 0; i < kEventWords; ++i)
    slot.words[i].store(words[i], std::memory_order_release);
  slot.seq.store(writing + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Dump() const {
  const std::uint64_t end = cursor_.load(std::memory_order_acquire);
  const std::uint64_t begin = end > capacity_ ? end - capacity_ : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(end - begin));
  std::array<std::uint64_t, kEventWords> words;
  for (std::uint64_t ticket = begin; ticket < end; ++ticket) {
    const Slot& slot = slots_[ticket % capacity_];
    const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
    if (seq1 != 2 * ticket + 2) continue;  // unpublished, torn, or lapped
    // Acquire loads keep the re-check below from moving ahead of them.
    for (std::size_t i = 0; i < kEventWords; ++i)
      words[i] = slot.words[i].load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != seq1) continue;
    out.push_back(std::bit_cast<FlightEvent>(words));
  }
  return out;
}

std::string FlightRecorder::DumpJson() const {
  const auto events = Dump();
  std::string out = "{\n\"capacity\": " + std::to_string(capacity_) +
                    ",\n\"recorded\": " + std::to_string(recorded()) +
                    ",\n\"events\": [";
  bool first = true;
  char number[64];
  for (const auto& event : events) {
    out += first ? "\n" : ",\n";
    first = false;
    std::snprintf(number, sizeof(number), "%.9f", event.t_s);
    out += "{\"t_s\":";
    out += number;
    out += ",\"tag\":\"" + JsonEscape(event.tag) + "\",\"detail\":\"" +
           JsonEscape(event.detail) +
           "\",\"trace_id\":" + std::to_string(event.trace_id) +
           ",\"a\":" + std::to_string(event.a) +
           ",\"b\":" + std::to_string(event.b) + "}";
  }
  out += "\n]\n}\n";
  return out;
}

std::string FlightRecorder::DumpOnEnv(std::string_view tag) const {
  const char* dir = std::getenv("VINELET_FLIGHT_DUMP");
  if (dir == nullptr || dir[0] == '\0') return "";
  std::string safe;
  for (const char c : tag) {
    safe += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
             c == '_')
                ? c
                : '-';
  }
  const std::string path = std::string(dir) + "/flight-" + safe + ".json";
  (void)WriteStringToFile(path, DumpJson());
  return path;
}

}  // namespace vinelet::telemetry
