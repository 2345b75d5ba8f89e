// Saturating phases: keep a fixed number of operations outstanding for a
// fixed time, refilling the window as results arrive.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/manager.hpp"

namespace perfbench {

struct ClosedLoopResult {
  std::uint64_t attempted = 0, succeeded = 0, failed = 0, mismatches = 0;
  double start_s = 0.0, deadline_s = 0.0;  ///< NowS() clock
  double slice_s = 0.25;  ///< length of the slices below
  double per_s = 0.0;  ///< operations completed by the deadline / duration
  std::uint64_t by_deadline = 0;  ///< successes completed by the deadline
  /// ProcessCpuS() spent from start until every operation resolved, so no
  /// operation's work is cut at the deadline.
  double cpu_s = 0.0;
  /// (ProcessCpuS(), succeeded) taken at each slice boundary the
  /// application thread saw, from the end of the first slice on.
  std::vector<std::pair<double, std::uint64_t>> cpu_marks;
  /// Successes completed in each slice from start_s.
  std::vector<std::uint64_t> slice_counts;
  std::vector<double> latency_s;   ///< submit -> resolve, successes
  std::vector<std::uint32_t> latency_slice;  ///< slice each latency ended in
  std::vector<double> submit_s;    ///< duration of each submit call

  /// Completion rate of each whole slice before the deadline, skipping the
  /// first (ramp-up).
  std::vector<double> SliceRates() const;
  /// Median of SliceRates(); `slices` receives how many were used.
  double SlicedRate(std::size_t* slices) const;
  /// Median latency of each whole slice SliceRates() covers that holds at
  /// least one completion (needs keep_latency).
  std::vector<double> SliceLatencyMedians() const;
  /// CPU time of the process per success between consecutive cpu_marks
  /// (intervals without a completion are skipped).
  std::vector<double> SliceCpuSPerOp() const;
  /// CPU time of the process per success, whole phase.
  double CpuSPerOp() const {
    return succeeded ? cpu_s / static_cast<double>(succeeded) : 0.0;
  }
};

/// Keeps `window` operations outstanding for `duration_s`, then waits for
/// the stragglers.  `submit(i)` issues operation i; `check(i, outcome)`
/// verifies a successful outcome (false = mismatch) and runs on the
/// manager thread.  Latencies are kept only with `keep_latency` (at tens of
/// thousands of operations per second they are a lot of memory).
/// Completions are counted per `slice_s` slice.
ClosedLoopResult RunClosedLoop(
    vinelet::core::Manager& manager, std::size_t window, double duration_s,
    bool keep_latency,
    const std::function<vinelet::core::FuturePtr(std::size_t)>& submit,
    const std::function<bool(std::size_t, const vinelet::core::Outcome&)>&
        check,
    double slice_s = 0.25);

}  // namespace perfbench
