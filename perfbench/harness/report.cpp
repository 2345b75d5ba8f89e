#include "harness/report.hpp"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Phase(const std::string& name, std::uint64_t attempted,
                   std::uint64_t succeeded, std::uint64_t failed,
                   std::uint64_t mismatches) {
  attempted_ += attempted;
  failed_ += failed;
  const bool ok =
      mismatches == 0 && failed == 0 && succeeded + failed == attempted;
  if (!ok) correct_ = false;
  std::printf(
      "phase %-16s attempted=%llu succeeded=%llu failed=%llu mismatches=%llu "
      "failed_ratio=%.6f %s\n",
      name.c_str(), static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(succeeded),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(mismatches),
      attempted == 0 ? 0.0
                     : static_cast<double>(attempted - succeeded) /
                           static_cast<double>(attempted),
      ok ? "OK" : "VERIFY-FAILED");
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::printf("verification failed: %s\n", why.c_str());
}

void Report::Print() const {
  for (const auto& [name, m] : metrics_)
    std::printf("  %-28s %14.6g %-6s (n=%zu)\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  for (const auto& [name, m] : metrics_) {
    // +inf (a failed op inside a percentile) is not valid JSON; print the
    // largest finite double so the value still compares as "worst".
    const double value = std::isfinite(m.value) ? m.value : 1.7976931348623157e308;
    std::printf("METRIC %s %.17g %s %zu\n", name.c_str(), value,
                m.unit.c_str(), m.samples);
  }
  std::printf("RESULT correct=%d attempted=%llu failed=%llu\n",
              correct_ ? 1 : 0, static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  std::fflush(stdout);
}

Usage ProcessUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  out.csw = static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  out.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
