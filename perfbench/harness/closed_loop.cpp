#include "harness/closed_loop.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>

#include "harness/cluster.hpp"
#include "harness/report.hpp"
#include "harness/stats.hpp"

namespace perfbench {

using namespace vinelet;

namespace {
constexpr std::size_t kMaxSubmitSamples = 100000;
}  // namespace

std::vector<double> ClosedLoopResult::SliceRates() const {
  const auto whole = static_cast<std::size_t>((deadline_s - start_s) / slice_s);
  std::vector<double> rates;
  for (std::size_t i = 1; i < whole && i < slice_counts.size(); ++i)
    rates.push_back(static_cast<double>(slice_counts[i]) / slice_s);
  return rates;
}

double ClosedLoopResult::SlicedRate(std::size_t* slices) const {
  const std::vector<double> rates = SliceRates();
  *slices = rates.size();
  return Median(rates);
}

std::vector<double> ClosedLoopResult::SliceLatencyMedians() const {
  const auto whole = static_cast<std::size_t>((deadline_s - start_s) / slice_s);
  std::vector<std::vector<double>> per_slice(whole);
  for (std::size_t i = 0; i < latency_s.size(); ++i)
    if (latency_slice[i] >= 1 && latency_slice[i] < whole)
      per_slice[latency_slice[i]].push_back(latency_s[i]);
  std::vector<double> medians;
  for (auto& slice : per_slice)
    if (!slice.empty()) medians.push_back(Median(std::move(slice)));
  return medians;
}

std::vector<double> ClosedLoopResult::SliceCpuSPerOp() const {
  std::vector<double> out;
  for (std::size_t i = 1; i < cpu_marks.size(); ++i) {
    const std::uint64_t ops = cpu_marks[i].second - cpu_marks[i - 1].second;
    if (ops > 0)
      out.push_back((cpu_marks[i].first - cpu_marks[i - 1].first) /
                    static_cast<double>(ops));
  }
  return out;
}

ClosedLoopResult RunClosedLoop(
    core::Manager& manager, std::size_t window, double duration_s,
    bool keep_latency,
    const std::function<core::FuturePtr(std::size_t)>& submit,
    const std::function<bool(std::size_t, const core::Outcome&)>& check,
    double slice_s) {
  ClosedLoopResult out;
  out.slice_s = slice_s;
  std::mutex mu;  // guards out.slice_counts / latency_s / counters below
  std::condition_variable cv;
  std::size_t outstanding = 0;
  std::uint64_t failed = 0, mismatches = 0;
  const std::size_t refill_at = window - std::max<std::size_t>(1, window / 4);

  const double cpu_start = ProcessCpuS();
  out.start_s = NowS();
  out.deadline_s = out.start_s + duration_s;
  out.slice_counts.assign(static_cast<std::size_t>(duration_s / slice_s) + 1, 0);
  std::size_t next = 0;
  double next_mark_s = out.start_s + slice_s;
  std::unique_lock<std::mutex> lock(mu);
  for (double now = out.start_s; now < out.deadline_s; now = NowS()) {
    if (now >= next_mark_s) {
      out.cpu_marks.emplace_back(ProcessCpuS(), out.succeeded);
      next_mark_s = out.start_s + slice_s * (std::floor((now - out.start_s) / slice_s) + 1);
    }
    while (outstanding < window) {
      ++outstanding;
      lock.unlock();
      const std::size_t i = next++;
      const double t0 = NowS();
      auto future = submit(i);
      const double t1 = NowS();
      if (out.submit_s.size() < kMaxSubmitSamples) out.submit_s.push_back(t1 - t0);
      future->OnReady([&, i, t0](const Result<core::Outcome>& outcome) {
        const double now = NowS();
        const bool ok = outcome.ok();
        const bool match = ok && check(i, *outcome);
        std::lock_guard<std::mutex> guard(mu);
        if (!ok) {
          ++failed;
        } else {
          if (!match) ++mismatches;
          ++out.succeeded;
          const auto slice = std::min(
              static_cast<std::size_t>((now - out.start_s) / out.slice_s),
              out.slice_counts.size());
          if (now <= out.deadline_s) {
            ++out.by_deadline;
            ++out.slice_counts[std::min(slice, out.slice_counts.size() - 1)];
          }
          if (keep_latency) {
            out.latency_s.push_back(now - t0);
            out.latency_slice.push_back(static_cast<std::uint32_t>(slice));
          }
        }
        if (--outstanding <= refill_at) cv.notify_one();
      });
      lock.lock();
    }
    cv.wait_until(lock, std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(20),
                  [&] { return outstanding <= refill_at; });
  }
  lock.unlock();
  DrainOrExit(manager);
  out.cpu_s = ProcessCpuS() - cpu_start;
  lock.lock();
  out.attempted = next;
  out.failed = failed + outstanding;  // never resolved counts as failed
  out.mismatches = mismatches;
  out.per_s = static_cast<double>(out.by_deadline) / duration_s;
  return out;
}

}  // namespace perfbench
