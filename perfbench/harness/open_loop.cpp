#include "harness/open_loop.hpp"

#include <chrono>
#include <cmath>
#include <random>
#include <thread>

namespace perfbench {

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double duration_s) {
  // mt19937_64's output sequence is fixed by the standard; the exponential
  // draw is done by hand because std::exponential_distribution is not.
  std::mt19937_64 rng(seed);
  std::vector<double> schedule;
  schedule.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) +
                   16);
  double t = 0.0;
  for (;;) {
    // Uniform in (0, 1]: 53 random mantissa bits, never exactly zero.
    const double u =
        (static_cast<double>(rng() >> 11) + 1.0) * (1.0 / 9007199254740992.0);
    t += -std::log(u) / rate_per_s;
    if (t >= duration_s) break;
    schedule.push_back(t);
  }
  return schedule;
}

SteadyPacer::SteadyPacer()
    : origin_ns_(std::chrono::steady_clock::now().time_since_epoch().count()) {}

double SteadyPacer::Now() const {
  const std::int64_t ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  return static_cast<double>(ns - origin_ns_) * 1e-9;
}

void SteadyPacer::SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

OpenLoop::OpenLoop(std::vector<double> schedule)
    : schedule_(std::move(schedule)),
      sent_(schedule_.size(), 0.0),
      finished_(schedule_.size(), 0.0),
      state_(schedule_.size(), kPending) {}

double OpenLoop::Run(Pacer& pacer,
                     const std::function<void(std::size_t)>& send) {
  origin_ = pacer.Now();
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const double intended = origin_ + schedule_[i];
    if (pacer.Now() < intended) pacer.SleepUntil(intended);
    sent_[i] = pacer.Now();
    send(i);
  }
  return origin_;
}

void OpenLoop::Complete(std::size_t index, double t, bool ok) {
  finished_[index] = t;
  state_[index] = ok ? kOk : kFailed;
  if (done_.fetch_add(1) + 1 == schedule_.size()) {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }
}

bool OpenLoop::WaitAll(double timeout_s) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return done_.load() == schedule_.size(); });
}

Summary OpenLoop::Latency() const {
  std::vector<double> latencies;
  latencies.reserve(schedule_.size());
  std::size_t failed = 0;
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    if (state_[i] == kOk)
      latencies.push_back(finished_[i] - Intended(i));
    else
      ++failed;  // failed, or never completed
  }
  return Summarize(std::move(latencies), failed);
}

std::vector<Summary> OpenLoop::LatencyWindows(double window_s) const {
  std::vector<Summary> out;
  std::size_t i = 0;
  for (double end = window_s; i < schedule_.size(); end += window_s) {
    std::vector<double> latencies;
    std::size_t failed = 0;
    for (; i < schedule_.size() && schedule_[i] < end; ++i) {
      if (state_[i] == kOk)
        latencies.push_back(finished_[i] - Intended(i));
      else
        ++failed;
    }
    if (i == schedule_.size()) break;  // partial last window
    out.push_back(Summarize(std::move(latencies), failed));
  }
  return out;
}

Summary OpenLoop::Lateness() const {
  std::vector<double> late;
  late.reserve(schedule_.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i)
    late.push_back(sent_[i] - Intended(i));
  return Summarize(std::move(late));
}

}  // namespace perfbench
