// Result accounting and output for one benchmark run.
//
// Every metric is printed as a human-readable line (name, value, unit,
// sample count) and as a machine-readable `METRIC` line that run.py turns
// into the final JSON result.  Phases record attempted / succeeded / failed
// counts and result mismatches; any mismatch makes the run incorrect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class Report {
 public:
  /// Records one metric (later calls with the same name overwrite).
  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);

  /// Records one phase's operation counts; `mismatches` counts results that
  /// came back but were wrong.
  void Phase(const std::string& name, std::uint64_t attempted,
             std::uint64_t succeeded, std::uint64_t failed,
             std::uint64_t mismatches);

  /// A run-level verification failure outside any phase (e.g. setup).
  void Fail(const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// Prints every metric (human lines + METRIC lines) and the RESULT line.
  void Print() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Process-wide resource usage (getrusage RUSAGE_SELF).
struct Usage {
  double cpu_s = 0.0;            ///< user + system
  std::uint64_t csw = 0;         ///< voluntary + involuntary switches
  double max_rss_mb = 0.0;       ///< peak resident set, MiB
};
Usage ProcessUsage();

/// CPU seconds all threads of this process have run
/// (CLOCK_PROCESS_CPUTIME_ID).  On a paravirtualized guest the kernel
/// leaves time stolen by the host out of it, so the host taking vCPUs away
/// does not inflate CPU per operation the way it inflates wall-clock time.
double ProcessCpuS();

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowS();

}  // namespace perfbench
