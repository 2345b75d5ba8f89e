// Open-loop load generation without coordinated omission.
//
// Requests are sent on a Poisson schedule drawn from the workload seed,
// regardless of how many earlier requests are still outstanding.  Each
// latency is measured from the request's *intended* send time, so when the
// generator (or the system under test) stalls, every request queued behind
// the stall is charged for the wait — a slow system cannot lower the load
// it is measured under.  How late the generator actually sent each request
// is recorded separately as a validity check.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "harness/stats.hpp"

namespace perfbench {

/// Arrival times (seconds from phase start, ascending) of a Poisson process
/// at `rate_per_s` over [0, duration_s).  Deterministic in `seed`: the same
/// seed gives the same schedule on every run and every platform.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double duration_s);

/// Time source and sleeper for the generator (seconds; origin arbitrary).
class Pacer {
 public:
  virtual ~Pacer() = default;
  virtual double Now() const = 0;
  virtual void SleepUntil(double t) = 0;
};

/// steady_clock pacer, origin at construction.
class SteadyPacer final : public Pacer {
 public:
  SteadyPacer();
  double Now() const override;
  void SleepUntil(double t) override;

 private:
  std::int64_t origin_ns_ = 0;
};

/// One open-loop phase: the schedule, when each request went out, and when
/// (and whether) it completed.
class OpenLoop {
 public:
  explicit OpenLoop(std::vector<double> schedule);

  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Sends every request on the calling thread: waits for its intended time
  /// (offset by the pacer time at entry), never for earlier completions,
  /// then calls `send(index)`.  Returns the pacer time at entry (the origin
  /// every intended time is relative to).
  double Run(Pacer& pacer, const std::function<void(std::size_t)>& send);

  /// Records that request `index` resolved at pacer time `t` (any thread;
  /// once per index).
  void Complete(std::size_t index, double t, bool ok);

  /// Blocks until every request completed or `timeout_s` passed; true when
  /// all completed.
  bool WaitAll(double timeout_s);

  std::size_t size() const { return schedule_.size(); }
  std::size_t completed() const { return done_.load(); }

  /// Completion minus intended send time, seconds; requests that failed or
  /// never completed count as +inf.
  Summary Latency() const;
  /// Latency() of each consecutive `window_s` window of intended send time
  /// (a trailing partial window is dropped).  A stall then spoils only the
  /// windows it touches, so the median over windows is a steady statistic.
  std::vector<Summary> LatencyWindows(double window_s) const;
  /// Actual minus intended send time, seconds.
  Summary Lateness() const;
  /// Per-request intended send time and actual send time (pacer clock).
  double Intended(std::size_t index) const { return origin_ + schedule_[index]; }
  double Sent(std::size_t index) const { return sent_[index]; }
  double Finished(std::size_t index) const { return finished_[index]; }
  bool Ok(std::size_t index) const { return state_[index] == kOk; }

 private:
  std::vector<double> schedule_;
  double origin_ = 0.0;
  std::vector<double> sent_;
  std::vector<double> finished_;
  enum : std::uint8_t { kPending = 0, kOk, kFailed };
  std::vector<std::uint8_t> state_;
  std::atomic<std::size_t> done_{0};
  std::mutex mu_;
  std::condition_variable cv_;
};

}  // namespace perfbench
